# Runs a CLI that must reject its arguments, and fails unless the command
# exits non-zero and its stderr matches EXPECT.
#
# Usage:
#   cmake -DCLI=<binary> -DARGS="<arg> ..." -DEXPECT=<regex>
#         -P ExpectCliError.cmake

if(NOT CLI OR NOT EXPECT)
  message(FATAL_ERROR "CLI and EXPECT are required")
endif()
separate_arguments(ARG_LIST UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${CLI}" ${ARG_LIST}
  RESULT_VARIABLE RC OUTPUT_VARIABLE OUT ERROR_VARIABLE ERR)
if(RC EQUAL 0)
  message(FATAL_ERROR
    "${CLI} ${ARGS} exited 0\nstdout:\n${OUT}\nstderr:\n${ERR}")
endif()
if(NOT ERR MATCHES "${EXPECT}")
  message(FATAL_ERROR
    "${CLI} ${ARGS} (exit ${RC}): stderr does not match '${EXPECT}':\n${ERR}")
endif()
