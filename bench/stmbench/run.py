#!/usr/bin/env python3
"""Build, run and compare stmbench (see README.md beside this file).

Everything it builds or writes stays inside the checkout holding this file
(the build tree is .bench_build/ at its root), except the result file,
which goes to --out (default BENCH_stmbench.json in the working directory).

  run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--smoke]
  run.py --workload all [--repeat K] [--out FILE] [...]
  run.py compare A.json B.json
  run.py record-reference
  run.py selftest smoke|determinism --bin PATH

A single-workload run prints the benchmark's output unchanged: metric lines,
then one JSON result line, which is the last line of standard output.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.normpath(os.path.join(HERE, '..', '..'))
BUILD = os.path.join(ROOT, '.bench_build', 'stmbench')
OUTDIR = os.path.join(ROOT, '.bench_build', 'stmbench-out')
REFERENCE = os.path.join(HERE, 'reference_digests.txt')
SPEC = os.path.join(ROOT, 'BENCHMARK.json')
WORKLOADS = ['paper-matrix', 'serve-mixed']
# One run takes about --seconds plus a few seconds of set-up; anything far
# beyond that is a hang.
RUN_TIMEOUT_S = 170


def fail(msg):
    sys.stderr.write('run.py: %s\n' % msg)
    sys.exit(1)


def build():
    """Configure (once) and build stmbench; returns the binary's path."""
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, 'build.log')
    steps = []
    if not os.path.exists(os.path.join(BUILD, 'CMakeCache.txt')):
        steps.append(['cmake', '-S', HERE, '-B', BUILD,
                      '-DCMAKE_BUILD_TYPE=RelWithDebInfo'])
    steps.append(['cmake', '--build', BUILD, '--target', 'stmbench',
                  '-j', str(min(4, os.cpu_count() or 1))])
    with open(log_path, 'w') as log:
        for cmd in steps:
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT):
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write(''.join(f.readlines()[-30:]))
                cache = os.path.join(BUILD, 'CMakeCache.txt')
                if cmd[1] == '-S' and os.path.exists(cache):
                    # A failed configure must not leave a cache that makes
                    # the next run skip it.
                    os.remove(cache)
                fail('building stmbench failed (log: %s)' % log_path)
    return os.path.join(BUILD, 'stmbench')


def run_child(binary, args, echo=True):
    """Run one stmbench process; returns (exit code, stdout lines, result).

    The result is the parsed JSON of the last output line, or None."""
    proc = subprocess.Popen([binary] + args, stdout=subprocess.PIPE,
                            text=True)
    timer = threading.Timer(RUN_TIMEOUT_S, proc.kill)
    timer.start()
    lines = []
    try:
        for line in proc.stdout:
            lines.append(line)
            if echo:
                sys.stdout.write(line)
                sys.stdout.flush()
        proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return proc.returncode, lines, result


def bench_args(workload, seed, seconds, trace, smoke, detail, spans,
               reference=REFERENCE):
    args = ['--workload', workload, '--seed', str(seed),
            '--seconds', str(seconds), '--trace', str(trace),
            '--detail', detail, '--spans', spans]
    if reference:
        args += ['--reference', reference]
    return args + (['--smoke'] if smoke else [])


def load_json(path):
    with open(path) as f:
        return json.load(f)


def cmd_run(opts):
    binary = build()
    os.makedirs(OUTDIR, exist_ok=True)
    workloads = WORKLOADS if opts.workload == 'all' else [opts.workload]
    runs, status = [], 0
    for rep in range(opts.repeat):
        for w in workloads:
            stem = os.path.join(OUTDIR, '%s.seed%d.trace%d' %
                                (w, opts.seed, opts.trace))
            detail, spans = stem + '.cells.json', stem + '.spans.json'
            if os.path.exists(detail):
                os.remove(detail)
            rc, _, result = run_child(binary, bench_args(
                w, opts.seed, opts.seconds, opts.trace, opts.smoke, detail,
                spans))
            # A negative code is a signal, such as the timeout's kill.
            status = max(status, rc if rc > 0 else int(rc < 0 or not result))
            if result is None:
                continue
            run = {'workload': w, 'seed': opts.seed, 'trace': opts.trace,
                   'smoke': opts.smoke, 'repeat': rep}
            run.update(result)
            if os.path.exists(detail):
                d = load_json(detail)
                run['values'], run['cells'] = d['values'], d['cells']
            runs.append(run)
    with open(opts.out, 'w') as f:
        json.dump({'bench': 'stmbench', 'host_cores': os.cpu_count(),
                   'runs': runs}, f, indent=1)
        f.write('\n')
    if len(workloads) > 1:
        sys.stderr.write('run.py: %d run(s) written to %s; %s\n' %
                         (len(runs), opts.out,
                          'all correct' if status == 0 else 'FAILURES'))
    return status


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def cmd_compare(a_path, b_path):
    """One row per workload x end-to-end metric: each side's median and
    quartiles, and a verdict against the metric's bound."""
    spec = load_json(SPEC)
    a, b = load_json(a_path), load_json(b_path)

    def values(doc, workload, metric):
        return [r['metrics'][metric]['value'] for r in doc['runs']
                if r['workload'] == workload and r['trace'] == 0
                and metric in r['metrics']]

    workloads = [w for w in WORKLOADS
                 if any(r['workload'] == w for r in a['runs'] + b['runs'])]
    print('%-17s %-15s %-34s %-34s %8s  %s' %
          ('workload', 'metric', 'A median [q1, q3]', 'B median [q1, q3]',
           'change', 'verdict'))
    worse = 0
    for w in workloads:
        for m in spec['end_to_end']:
            va, vb = values(a, w, m['name']), values(b, w, m['name'])
            if not va or not vb:
                print('%-17s %-15s missing on one side' % (w, m['name']))
                continue
            ma, mb = statistics.median(va), statistics.median(vb)
            sign = 1 if m['better'] == 'lower' else -1
            change = sign * (mb - ma) / ma if ma else 0.0
            spread = max((q3 - q1) / med if med else 0.0
                         for (q1, q3), med in ((quartiles(va), ma),
                                               (quartiles(vb), mb)))
            if m['bound'] == 0:
                # A modeled metric: every run must give the same value.
                if set(va) == set(vb) and len(set(va)) == 1:
                    verdict = 'identical'
                else:
                    verdict = 'CHANGED (bound 0: must match exactly)'
                    worse += 1
            elif spread > m['bound']:
                if all(sign * (y - x) < 0 for x in va for y in vb):
                    verdict = 'better (every B run beats every A run)'
                else:
                    verdict = 'unresolved (spread %.3f > bound %.3f)' % (
                        spread, m['bound'])
            elif change > m['bound']:
                verdict = 'WORSE (bound %.3f)' % m['bound']
                worse += 1
            elif change < -m['bound']:
                verdict = 'better'
            else:
                verdict = 'within bound'
            print('%-17s %-15s %-34s %-34s %+7.1f%%  %s' % (
                w, m['name'],
                '%.6g [%.6g, %.6g]' % ((ma,) + quartiles(va)),
                '%.6g [%.6g, %.6g]' % ((mb,) + quartiles(vb)),
                100 * change, verdict))
    return 1 if worse else 0


def cmd_record_reference():
    """Rewrite reference_digests.txt from seed-0 runs of every workload,
    made without comparing against the file being replaced."""
    binary = build()
    os.makedirs(OUTDIR, exist_ok=True)
    lines = ['# stmbench seed-0 resultDigest of every cell and request class',
             '# (regenerate with: python3 bench/stmbench/run.py '
             'record-reference)']
    for w in WORKLOADS:
        detail = os.path.join(OUTDIR, '%s.reference.json' % w)
        rc, _, result = run_child(binary, bench_args(
            w, 0, 1, 0, False, detail, os.devnull, reference=None),
            echo=False)
        if rc != 0 or not result or not result['correct']:
            fail('%s did not run correctly; reference not written' % w)
        for cell in load_json(detail)['cells']:
            lines.append('%s %s %s' % (w, cell['cell'], cell['digest']))
    with open(REFERENCE, 'w') as f:
        f.write('\n'.join(lines) + '\n')
    print('wrote %s (%d cells)' % (REFERENCE, len(lines) - 2))
    return 0


def smoke_run(binary, tmp, workload, trace, tag):
    """One --smoke run; returns (stdout lines, result, detail)."""
    stem = os.path.join(tmp, '%s.%s' % (workload, tag))
    rc, lines, result = run_child(binary, bench_args(
        workload, 0, 1, trace, True, stem + '.cells.json',
        stem + '.spans.json'), echo=False)
    if rc != 0 or result is None or not result['correct'] \
            or result['failed'] != 0:
        sys.stdout.write(''.join(lines))
        fail('%s (trace %d) failed: exit %d' % (workload, trace, rc))
    return lines, result, load_json(stem + '.cells.json')


def selftest_smoke(binary, tmp):
    """Every BENCHMARK.json metric prints with its unit; nothing fails."""
    spec = load_json(SPEC)
    for w in WORKLOADS:
        for trace, kind in ((0, 'end_to_end'), (1, 'per_layer')):
            lines, result, _ = smoke_run(binary, tmp, w, trace, kind)
            want = [(m['name'], m['unit']) for m in spec[kind]]
            got = [(k, v['unit']) for k, v in result['metrics'].items()]
            if got != want:
                fail('%s %s metrics differ from BENCHMARK.json:\n  got  %s\n'
                     '  want %s' % (w, kind, got, want))
            printed = {tuple(l.split()[1:4:2]) for l in lines
                       if l.startswith(w + ' ')}
            for name, unit in want + [('fail_frac', 'ratio')]:
                if (name, unit) not in printed:
                    fail('%s: no "%s %s <value> %s" line' %
                         (w, w, name, unit))
            if result['attempted'] < 1:
                fail('%s attempted nothing' % w)
        print('%s: smoke ok' % w)


def selftest_determinism(binary, tmp):
    """Two untraced runs and a traced run agree on every digest and on the
    modeled cycles."""
    for w in WORKLOADS:
        details = [smoke_run(binary, tmp, w, trace, tag)[2]
                   for trace, tag in ((0, 'a'), (0, 'b'), (1, 't'))]
        digests = [{c['cell']: c['digest'] for c in d['cells']}
                   for d in details]
        cycles = [d['values']['modeled_cycles']['value'] for d in details]
        if digests[1:] != digests[:-1]:
            fail('%s digests differ between runs: %s' % (w, digests))
        if len(set(cycles)) != 1:
            fail('%s modeled cycles differ between runs: %s' % (w, cycles))
        print('%s: %d digests and modeled cycles identical across 3 runs' %
              (w, len(digests[0])))


def main():
    if len(sys.argv) > 1 and sys.argv[1] == 'compare':
        if len(sys.argv) != 4:
            fail('usage: run.py compare A.json B.json')
        return cmd_compare(sys.argv[2], sys.argv[3])
    if sys.argv[1:] == ['record-reference']:
        return cmd_record_reference()
    if len(sys.argv) > 1 and sys.argv[1] == 'selftest':
        p = argparse.ArgumentParser(prog='run.py selftest')
        p.add_argument('check', choices=['smoke', 'determinism'])
        p.add_argument('--bin', required=True)
        opts = p.parse_args(sys.argv[2:])
        tmp = tempfile.mkdtemp(prefix='stmbench-selftest-', dir=os.getcwd())
        try:
            if opts.check == 'smoke':
                selftest_smoke(os.path.abspath(opts.bin), tmp)
            else:
                selftest_determinism(os.path.abspath(opts.bin), tmp)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        return 0

    p = argparse.ArgumentParser(description='Build and run stmbench.')
    p.add_argument('--workload', required=True,
                   choices=WORKLOADS + ['all'])
    p.add_argument('--seed', type=int, default=0)
    p.add_argument('--seconds', type=float, default=55)
    p.add_argument('--trace', type=int, choices=[0, 1], default=0)
    p.add_argument('--smoke', action='store_true')
    p.add_argument('--repeat', type=int, default=1)
    p.add_argument('--out', default='BENCH_stmbench.json')
    opts = p.parse_args()
    if opts.seed < 0 or opts.repeat < 1:
        fail('--seed must be >= 0 and --repeat >= 1')
    return cmd_run(opts)


if __name__ == '__main__':
    sys.exit(main())
