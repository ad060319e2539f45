# Runs one bench with its JSON output sent to /dev/full and requires a
# non-zero exit with "<bench>: error: cannot write: /dev/full" on stderr.
# /dev/full accepts the open and fails the writes, so a writer that only
# checks fopen prints "(wrote /dev/full)" and exits 0.
#
#   cmake -P check_write_failure.cmake <bench> <flag>...

# The bench command line is every argument after this script's path.
set(command)
set(script_seen FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  if(script_seen)
    list(APPEND command "${CMAKE_ARGV${i}}")
  else()
    get_filename_component(arg "${CMAKE_ARGV${i}}" ABSOLUTE)
    if(arg STREQUAL CMAKE_SCRIPT_MODE_FILE)
      set(script_seen TRUE)
    endif()
  endif()
endforeach()
list(GET command 0 bench)
get_filename_component(name "${bench}" NAME)

execute_process(COMMAND ${command}
                RESULT_VARIABLE code
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
set(expected "${name}: error: cannot write: /dev/full")
if(code EQUAL 0)
  message(FATAL_ERROR "${name} exited 0 on a failed write\n${out}${err}")
endif()
string(FIND "${err}" "${expected}" at)
if(at EQUAL -1)
  message(FATAL_ERROR "${name}: exit ${code}, stderr lacks '${expected}'\n${err}")
endif()
