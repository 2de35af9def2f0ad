# A rule output that cannot be written fails the command: `qarm` (text,
# JSON and CSV) and `qarm rules dump` (text and JSON) with stdout on
# /dev/full must print "cannot write output: ..." and exit 1.
#
#   cmake -DQARM=<qarm> -DFIXTURE=<render fixture.csv> -DWORK_DIR=<dir>
#         -P cli_write_error_smoke.cmake
if(NOT EXISTS /dev/full)
  message(STATUS "no /dev/full on this host; nothing to check")
  return()
endif()
set(RULES ${WORK_DIR}/write_error.qrs)
set(MINE '${QARM}' --input='${FIXTURE}'
    --schema=Age:quant,Drink:cat,City:cat,Cars:quant
    --minsup=0.2 --minconf=0.6 --maxsup=0.6 --k=5 --interest=1.1)
list(JOIN MINE " " mine)

execute_process(COMMAND sh -c "${mine} --output-rules='${RULES}' > /dev/null"
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "qarm --output-rules exited with ${rc}")
endif()

foreach(command
    "${mine}"
    "${mine} --format=json"
    "${mine} --format=csv"
    "'${QARM}' rules dump '${RULES}'"
    "'${QARM}' rules dump '${RULES}' --format=json")
  execute_process(COMMAND sh -c "${command} > /dev/full"
    ERROR_VARIABLE err
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 1 OR NOT err MATCHES "cannot write output: ")
    message(FATAL_ERROR
            "${command} > /dev/full: exit ${rc}, want 1 with "
            "'cannot write output'; stderr:\n${err}")
  endif()
endforeach()
message(STATUS "every rule output reports a failed write")
