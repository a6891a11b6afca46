//===- simt/Observer.cpp - Host-side run observer interface ---------------===//
//
// Part of the GPU-STM reproduction (CGO 2014).
//
//===----------------------------------------------------------------------===//

#include "simt/Observer.h"

using namespace gpustm;
using namespace gpustm::simt;

// Anchor the vtable here so observers do not each emit it.
Observer::~Observer() = default;
