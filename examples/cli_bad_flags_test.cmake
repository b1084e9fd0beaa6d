# Runs fabricsim_cli with bad numeric flags. Each run must exit with
# status 2 and print an error that names the flag — never abort on an
# uncaught exception, never run with the bad value.
#
#   cmake -DCLI=<path/to/fabricsim_cli> -P cli_bad_flags_test.cmake

function(expect_refused flag pattern)
  execute_process(COMMAND "${CLI}" "${flag}"
                  RESULT_VARIABLE status
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(NOT status EQUAL 2)
    message(FATAL_ERROR "${flag}: exit status ${status}, want 2\n${out}${err}")
  endif()
  if(NOT err MATCHES "${pattern}")
    message(FATAL_ERROR "${flag}: stderr does not match '${pattern}':\n${err}")
  endif()
endfunction()

expect_refused("--block-size=abc" "--block-size: 'abc' is not a non-negative integer")
expect_refused("--rate=0" "--rate must be > 0, got 0")
