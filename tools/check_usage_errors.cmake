# Runs ccdn-trace with one bad flag value at a time and requires a usage
# error: exit status 2 and the flag's name on stderr. The trace path given
# with --in does not exist and the one given with --out must not be
# created, so each check also shows that the value is rejected before any
# file is opened.
#
#   cmake -DCCDN_TRACE=<ccdn-trace> -DWORK_DIR=<scratch dir>
#         -P check_usage_errors.cmake

set(missing "${WORK_DIR}/usage_error_no_such_trace.csv")
set(unwritten "${WORK_DIR}/usage_error_unwritten_trace.csv")
file(REMOVE "${unwritten}")

function(expect_usage_error flag)
  execute_process(COMMAND ${ARGN}
                  RESULT_VARIABLE code
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  string(REPLACE ";" " " command "${ARGN}")
  if(NOT code EQUAL 2)
    message(SEND_ERROR "${command}: exit ${code}, expected 2\n${err}")
  endif()
  string(FIND "${err}" "--${flag}" at)
  if(at EQUAL -1)
    message(SEND_ERROR "${command}: stderr does not name --${flag}\n${err}")
  endif()
  if(EXISTS "${unwritten}")
    message(SEND_ERROR "${command}: wrote ${unwritten}")
    file(REMOVE "${unwritten}")
  endif()
endfunction()

foreach(bad IN ITEMS capacity=0 capacity=-0.5 capacity=nan cache=0 cache=2
                     slot_seconds=0 videos=0 videos=1 hotspots=0
                     hotspots=-1 hotspots=abc threads=-1 threads=1025
                     shards=-1 shards=1000001)
  string(REGEX REPLACE "=.*" "" flag "${bad}")
  expect_usage_error(${flag} ${CCDN_TRACE} simulate --in=${missing} --${bad})
endforeach()
expect_usage_error(hotspots ${CCDN_TRACE} stats --in=${missing} --hotspots=0)
foreach(bad IN ITEMS requests=0 hours=0 videos=0 hotspots=0)
  string(REGEX REPLACE "=.*" "" flag "${bad}")
  expect_usage_error(${flag} ${CCDN_TRACE} generate --out=${unwritten}
                     --${bad})
endforeach()
foreach(bad IN ITEMS capacity=0 cache=2 slot_seconds=0 videos=0 hotspots=0
                     shards=-1 shards=1000001)
  string(REGEX REPLACE "=.*" "" flag "${bad}")
  expect_usage_error(${flag} ${CCDN_TRACE} audit --quiet --in=${missing}
                     --${bad})
endforeach()
