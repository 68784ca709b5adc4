# Runs a command and checks both its exit code and its output, which a plain
# add_test cannot do at once (PASS_REGULAR_EXPRESSION ignores the exit code).
#
#   cmake -DEXPECT_CODE=2 -DEXPECT_OUTPUT=<regex> -P expect_exit.cmake -- cmd args...
#
# EXPECT_OUTPUT is matched against stdout and stderr together.
set(command)
set(in_command FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  if(in_command)
    list(APPEND command "${CMAKE_ARGV${i}}")
  elseif("${CMAKE_ARGV${i}}" STREQUAL "--")
    set(in_command TRUE)
  endif()
endforeach()
if(NOT command)
  message(FATAL_ERROR "expect_exit.cmake: no command after --")
endif()

execute_process(COMMAND ${command}
                RESULT_VARIABLE code
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT "${code}" STREQUAL "${EXPECT_CODE}")
  message(FATAL_ERROR "exit ${code}, expected ${EXPECT_CODE}\n${out}${err}")
endif()
if(NOT "${out}${err}" MATCHES "${EXPECT_OUTPUT}")
  message(FATAL_ERROR "output does not match '${EXPECT_OUTPUT}':\n${out}${err}")
endif()
