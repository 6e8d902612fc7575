# Usage test for tools/setm_served, driven by ctest: --job-threads is
# bounded by kMaxThreads (64), as --threads is. A larger count is a usage
# error (exit 2), refused while the arguments are parsed, before the
# database opens or any job thread starts. The TIMEOUT stops a daemon that
# a missing bound would leave serving.
#
# Invoked as:
#   cmake -DSETM_SERVED=<binary> -P this_file

if(NOT DEFINED SETM_SERVED)
  message(FATAL_ERROR "SETM_SERVED must be defined")
endif()

execute_process(
  COMMAND "${SETM_SERVED}" --job-threads 65
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
  RESULT_VARIABLE exit_code
  TIMEOUT 20)
if(NOT exit_code EQUAL 2)
  message(FATAL_ERROR "setm_served --job-threads 65 exited with "
                      "'${exit_code}', expected 2 (usage error)\n${err}")
endif()
if(NOT err MATCHES "--job-threads must be in \\[1,64\\]")
  message(FATAL_ERROR "setm_served --job-threads 65 did not name the "
                      "bound:\n${err}")
endif()
