# Runs ccdn-trace on unusable command lines and inputs and requires exit
# status 2 with the reason on stderr, for simulate, audit and stats alike;
# generate likewise on an --out it cannot write. Exit 1 is left to broken
# invariants and other runtime errors, and nothing may end in an abort.
#
#   cmake -DCCDN_TRACE=<ccdn-trace> -DDATA_DIR=<tests/data>
#         -DWORK_DIR=<scratch dir> -P check_exit_codes.cmake

set(empty "${WORK_DIR}/exit_code_empty_trace.csv")
set(header_only "${WORK_DIR}/exit_code_header_only_trace.csv")
file(WRITE "${empty}" "")
file(WRITE "${header_only}" "user,timestamp,video,lat,lon\n")

function(expect_exit expected message)
  execute_process(COMMAND ${CCDN_TRACE} ${ARGN}
                  RESULT_VARIABLE code
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  string(REPLACE ";" " " command "ccdn-trace ${ARGN}")
  if(NOT code STREQUAL "${expected}")
    message(SEND_ERROR "${command}: exit ${code}, expected ${expected}\n${err}")
  endif()
  string(FIND "${err}" "${message}" at)
  if(at EQUAL -1)
    message(SEND_ERROR "${command}: stderr lacks '${message}'\n${err}")
  endif()
endfunction()

foreach(command IN ITEMS simulate audit stats)
  expect_exit(2 "${command}: cannot open for reading"
              ${command} --in=${WORK_DIR}/exit_code_no_such_trace.csv)
  expect_exit(2 "${command}: trace CSV: missing or malformed header"
              ${command} --in=${empty})
  expect_exit(2 "${command}: trace CSV line 3: not an integer"
              ${command} --in=${DATA_DIR}/stray_cr_trace.csv)
  expect_exit(2 "${command}: trace CSV line 4: unterminated quoted field"
              ${command} --in=${DATA_DIR}/unterminated_quote_trace.csv)
  expect_exit(2 "bare '--' is not a flag" ${command} --in=${header_only} --)
  expect_exit(2 "${command}: video id 99999999 is outside the catalog"
              ${command} --in=${DATA_DIR}/out_of_catalog_trace.csv)
endforeach()
foreach(command IN ITEMS simulate audit)
  expect_exit(2 "${command}: trace CSV line 3: timestamps not sorted"
              ${command} --in=${DATA_DIR}/unsorted_trace.csv)
endforeach()
expect_exit(2 "stats: trace is empty" stats --in=${header_only})
expect_exit(2 "generate: cannot open for writing"
            generate --out=${WORK_DIR}/exit_code_no_such_dir/trace.csv
            --requests=10)
