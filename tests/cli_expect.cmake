# Runs one command-line invocation and checks how it ends:
#
#   cmake -DEXPECT_EXIT=<code> -DEXPECT_OUTPUT=<regex> -P cli_expect.cmake -- <program> [args...]
#
# Passes when <program> exits with EXPECT_EXIT and its combined stdout and
# stderr match EXPECT_OUTPUT.  A program still running after 20 s is killed
# and fails the check, so a hang never outlives the test.
set(command)
set(in_command FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
    if(in_command)
        list(APPEND command "${CMAKE_ARGV${i}}")
    elseif(CMAKE_ARGV${i} STREQUAL "--")
        set(in_command TRUE)
    endif()
endforeach()
if(NOT command)
    message(FATAL_ERROR "usage: cmake -DEXPECT_EXIT=N -DEXPECT_OUTPUT=RE -P cli_expect.cmake -- PROGRAM [ARGS...]")
endif()

execute_process(COMMAND ${command} TIMEOUT 20
    RESULT_VARIABLE code OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT code STREQUAL EXPECT_EXIT)
    message(FATAL_ERROR "expected exit ${EXPECT_EXIT}, got ${code}\n${out}${err}")
endif()
if(NOT "${out}${err}" MATCHES "${EXPECT_OUTPUT}")
    message(FATAL_ERROR "output does not match '${EXPECT_OUTPUT}':\n${out}${err}")
endif()
