# Runs each bench and example with a flag it does not read and requires
# exit status 2 with "<binary>: unknown flag --<name>" on stderr and nothing
# on stdout: the command line is refused before any work, so a typo or a
# retired option fails at once instead of starting a long run of something
# else. fig8's retired --flow_only, and a malformed value, which must name
# its flag, are run too.
#
#   cmake "-DPROGRAMS=<binary>|<binary>|..." -DFIG8=<fig8_running_time>
#         -P check_unknown_flags.cmake

string(REPLACE "|" ";" programs "${PROGRAMS}")

# Runs <program> <args...> and requires exit 2, stderr holding
# "<program's file name>: <message>" and an empty stdout.
function(expect_usage_error program message)
  execute_process(COMMAND ${program} ${ARGN}
                  RESULT_VARIABLE code
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err
                  TIMEOUT 60)
  get_filename_component(name "${program}" NAME)
  string(REPLACE ";" " " command "${name} ${ARGN}")
  if(NOT code STREQUAL "2")
    message(SEND_ERROR "${command}: exit ${code}, expected 2\n${out}${err}")
  endif()
  string(FIND "${err}" "${name}: ${message}" at)
  if(at EQUAL -1)
    message(SEND_ERROR "${command}: stderr lacks '${name}: ${message}'\n${err}")
  endif()
  if(NOT out STREQUAL "")
    message(SEND_ERROR "${command}: printed before refusing its flags\n${out}")
  endif()
endfunction()

foreach(program IN LISTS programs)
  expect_usage_error(${program} "unknown flag --no_such_flag" --no_such_flag)
endforeach()
expect_usage_error(${FIG8} "unknown flag --flow_only" --flow_only)
expect_usage_error(${FIG8} "flag --lp_requests: " --lp_requests=abc)
