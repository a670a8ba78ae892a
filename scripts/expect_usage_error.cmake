# Runs a program that must reject its input before doing any work. Passes
# when the program exits with status 2, writes nothing to stdout and names
# the bad input on stderr. The malformed-input ctest cases of bench/ and
# examples/ run through it:
#
#   cmake -DEXPECT=<text stderr must contain> -P expect_usage_error.cmake
#         <program> [args...]
#
# With -DEXIT_STATUS=<n> it checks a failure after work began instead: exit
# status n and EXPECT on stderr, whatever was printed to stdout first
# (tests/ also compiles a must-fail fixture through it).
if(NOT DEFINED EXPECT)
  message(FATAL_ERROR "expect_usage_error: set -DEXPECT=<text>")
endif()
if(NOT DEFINED EXIT_STATUS)
  set(EXIT_STATUS 2)
endif()

# Everything after the script path is the command line to run.
set(command "")
set(after_script FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  if(after_script)
    list(APPEND command "${CMAKE_ARGV${i}}")
  elseif(CMAKE_ARGV${i} STREQUAL CMAKE_CURRENT_LIST_FILE)
    set(after_script TRUE)
  endif()
endforeach()
if(NOT command)
  message(FATAL_ERROR "expect_usage_error: no program to run")
endif()

execute_process(COMMAND ${command}
                RESULT_VARIABLE status
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT status STREQUAL EXIT_STATUS)
  message(FATAL_ERROR
          "expected exit status ${EXIT_STATUS}, got '${status}'\n${err}")
endif()
if(EXIT_STATUS STREQUAL "2" AND NOT out STREQUAL "")
  message(FATAL_ERROR "expected no output before the rejection, got:\n${out}")
endif()
string(FIND "${err}" "${EXPECT}" at)
if(at EQUAL -1)
  message(FATAL_ERROR "stderr does not name '${EXPECT}':\n${err}")
endif()
