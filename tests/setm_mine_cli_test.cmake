# End-to-end test for tools/setm_mine, driven by ctest:
#   1. write the paper's Section 4.2 example database as a tiny CSV,
#   2. mine it through the CLI in --format csv,
#   3. compare the rule output byte-for-byte against the committed golden.
#
# Invoked as:
#   cmake -DSETM_MINE=<binary> -DGOLDEN_DIR=<dir> -DWORK_DIR=<dir> -P this_file

foreach(var SETM_MINE GOLDEN_DIR WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "${var} must be defined")
  endif()
endforeach()

file(MAKE_DIRECTORY "${WORK_DIR}")

# The worked example of the paper (A=0 .. H=7), one (trans_id,item) row per
# tuple of the SALES relation.
set(rows "trans_id,item\n")
foreach(row
    "10,0" "10,1" "10,2"
    "20,0" "20,1" "20,3"
    "30,0" "30,1" "30,2"
    "40,1" "40,2" "40,3"
    "50,0" "50,2" "50,6"
    "60,0" "60,3" "60,6"
    "70,0" "70,4" "70,7"
    "80,3" "80,4" "80,5"
    "90,3" "90,4" "90,5"
    "99,3" "99,4" "99,5")
  string(APPEND rows "${row}\n")
endforeach()
file(WRITE "${WORK_DIR}/paper_example.csv" "${rows}")

execute_process(
  COMMAND "${SETM_MINE}"
          --input "${WORK_DIR}/paper_example.csv"
          --minsup 30 --minconf 70 --format csv
  OUTPUT_FILE "${WORK_DIR}/rules.csv"
  RESULT_VARIABLE exit_code)
if(NOT exit_code EQUAL 0)
  message(FATAL_ERROR "setm_mine exited with ${exit_code}")
endif()

execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files
          "${WORK_DIR}/rules.csv" "${GOLDEN_DIR}/paper_example_rules.csv"
  RESULT_VARIABLE diff)
if(NOT diff EQUAL 0)
  file(READ "${WORK_DIR}/rules.csv" actual)
  message(FATAL_ERROR "rule output differs from golden "
                      "${GOLDEN_DIR}/paper_example_rules.csv; got:\n${actual}")
endif()

# --threads is bounded by kMaxThreads (64), the server's THREADS bound:
# a larger count is a usage error, refused while the arguments are parsed,
# so no thread is started for it.
foreach(threads 65 100000)
  execute_process(
    COMMAND "${SETM_MINE}"
            --input "${WORK_DIR}/paper_example.csv"
            --minsup 30 --minconf 70 --format csv --threads ${threads}
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    RESULT_VARIABLE exit_code)
  if(NOT exit_code EQUAL 2)
    message(FATAL_ERROR "setm_mine --threads ${threads} exited with "
                        "${exit_code}, expected 2 (usage error)")
  endif()
  if(NOT err MATCHES "--threads must be in \\[1,64\\]")
    message(FATAL_ERROR "setm_mine --threads ${threads} printed: ${err}")
  endif()
  if(NOT out STREQUAL "")
    message(FATAL_ERROR "setm_mine --threads ${threads} mined: ${out}")
  endif()
endforeach()
