# Incremental mining end to end through the real binary:
#   convert -> mine --append (seeds the base checkpoint) -> qarm append ->
#   mine --append (merges only the appended blocks) -> byte-compare against
#   a from-scratch mine of the grown file.
# Then the crash matrix: a mine --append run SIGKILL'd mid-run
# (--kill-after-pass=2) at threads {1,4} x workers {1,4} must, on rerun
# with the same flags, still end byte-identical to the from-scratch mine.
# Last, a TCP leg: mine --append --worker=HOST:PORT against a `qarm worker`.
#
# All byte comparisons use --format=csv: the rules alone, no timing stats.
set(DATA "${WORK_DIR}/inc_base.csv")
set(DELTA "${WORK_DIR}/inc_delta.csv")
set(QBT "${WORK_DIR}/inc.qbt")
set(QCP "${WORK_DIR}/inc.qcp")
set(SCHEMA
  monthly_income:quant:int,credit_limit:quant:int,current_balance:quant:int,ytd_balance:quant:int,ytd_interest:quant:double,employee_category:cat,marital_status:cat)
# Interval override + coarse minsup keep the equi-depth ranges far from the
# support thresholds, so the same-distribution append below provably keeps
# the item catalog stable and the delta passes actually merge.
set(MINE_FLAGS --minsup=0.25 --minconf=0.4 --maxsup=0.45 --intervals=9)

function(run_or_die out_var)
  execute_process(COMMAND ${ARGN}
    OUTPUT_VARIABLE out ERROR_VARIABLE err RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "command failed (${rc}): ${ARGN}\n${err}")
  endif()
  set(${out_var} "${out}" PARENT_SCOPE)
  set(${out_var}_stderr "${err}" PARENT_SCOPE)
endfunction()

# The delta re-uses the base generator seed, so its rows follow the same
# distribution and every item keeps its support ratio after the append.
run_or_die(ignored ${QARM} gen --output=${DATA} --records=6000 --seed=17)
run_or_die(ignored ${QARM} gen --output=${DELTA} --records=6000 --seed=17)

run_or_die(ignored ${QARM} convert --input=${DATA} --schema=${SCHEMA}
  --output=${QBT} --block-rows=256 ${MINE_FLAGS})

# First append-mode run: no checkpoint yet -> full mine, base left behind.
file(REMOVE "${QCP}")
run_or_die(first ${QARM} --input-qbt=${QBT} ${MINE_FLAGS}
  --checkpoint=${QCP} --append --format=csv)
if(NOT EXISTS "${QCP}")
  message(FATAL_ERROR "append-mode run left no base checkpoint at ${QCP}")
endif()
if(NOT first_stderr MATCHES "# incremental: full mine")
  message(FATAL_ERROR "first run did not report a full mine:\n${first_stderr}")
endif()

# Keep a pristine copy of the base qbt + checkpoint for the crash matrix.
run_or_die(ignored ${CMAKE_COMMAND} -E copy ${QBT} ${QBT}.base)
run_or_die(ignored ${CMAKE_COMMAND} -E copy ${QCP} ${QCP}.base)

# Grow the file, then mine incrementally against the base checkpoint.
run_or_die(append_out ${QARM} append --input=${DELTA} --schema=${SCHEMA}
  --output=${QBT})
run_or_die(incremental ${QARM} --input-qbt=${QBT} ${MINE_FLAGS}
  --checkpoint=${QCP} --append --format=csv)
if(NOT incremental_stderr MATCHES "# incremental: base=")
  message(FATAL_ERROR
    "second run did not take the incremental path:\n${incremental_stderr}")
endif()

# The signature guarantee: byte-identical to a from-scratch mine.
run_or_die(baseline ${QARM} --input-qbt=${QBT} ${MINE_FLAGS} --format=csv)
if(NOT incremental STREQUAL baseline)
  message(FATAL_ERROR
    "incremental rules differ from the from-scratch mine\n--- baseline\n"
    "${baseline}\n--- incremental\n${incremental}")
endif()

# Crash matrix: SIGKILL an incremental mine after pass 2, rerun with the
# same flags, and require the from-scratch rules — at every threads x
# workers combination.
foreach(threads 1 4)
  foreach(workers 1 4)
    set(cell "t${threads}w${workers}")
    set(cell_qbt "${WORK_DIR}/inc_${cell}.qbt")
    set(cell_qcp "${WORK_DIR}/inc_${cell}.qcp")
    run_or_die(ignored ${CMAKE_COMMAND} -E copy ${QBT}.base ${cell_qbt})
    run_or_die(ignored ${CMAKE_COMMAND} -E copy ${QCP}.base ${cell_qcp})
    run_or_die(ignored ${QARM} append --input=${DELTA} --schema=${SCHEMA}
      --output=${cell_qbt})

    execute_process(
      COMMAND ${QARM} --input-qbt=${cell_qbt} ${MINE_FLAGS}
        --checkpoint=${cell_qcp} --append --format=csv
        --threads=${threads} --workers=${workers} --kill-after-pass=2
      RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
    if(rc EQUAL 0)
      message(FATAL_ERROR "${cell}: --kill-after-pass=2 run survived")
    endif()
    if(NOT EXISTS "${cell_qcp}")
      message(FATAL_ERROR "${cell}: killed run left no checkpoint")
    endif()

    run_or_die(recovered ${QARM} --input-qbt=${cell_qbt} ${MINE_FLAGS}
      --checkpoint=${cell_qcp} --append --format=csv
      --threads=${threads} --workers=${workers})
    if(NOT recovered STREQUAL baseline)
      message(FATAL_ERROR
        "${cell}: rules after kill+resume differ from the from-scratch "
        "mine\n--- baseline\n${baseline}\n--- recovered\n${recovered}")
    endif()
  endforeach()
endforeach()

# TCP leg: one `qarm worker` server runs through `qarm append`. A first
# `mine --append --worker=HOST:PORT` mines the base file on it (leaving the
# base checkpoint); after the append, the same running server scans the
# delta, and the run must print the from-scratch rules.
set(tcp_qbt "${WORK_DIR}/inc_tcp.qbt")
set(tcp_qcp "${WORK_DIR}/inc_tcp.qcp")
set(tcp_port_file "${WORK_DIR}/inc_tcp_worker.port")
set(tcp_pid_file "${WORK_DIR}/inc_tcp_worker.pid")
file(REMOVE "${tcp_port_file}" "${tcp_pid_file}" "${tcp_qcp}")
run_or_die(ignored ${CMAKE_COMMAND} -E copy ${QBT}.base ${tcp_qbt})
# The server self-stops after 120 s as a backstop.
execute_process(
  COMMAND sh -c "'${QARM}' worker --listen=127.0.0.1:0 \
--input-qbt='${tcp_qbt}' --port-file='${tcp_port_file}' \
--serve-seconds=120 > '${WORK_DIR}/inc_tcp_worker.log' 2>&1 & \
echo $! > '${tcp_pid_file}'"
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "failed to launch the incremental TCP worker (${rc})")
endif()
set(tcp_port "")
foreach(i RANGE 100)
  if(EXISTS "${tcp_port_file}")
    file(READ "${tcp_port_file}" tcp_port)
    string(STRIP "${tcp_port}" tcp_port)
    break()
  endif()
  execute_process(COMMAND ${CMAKE_COMMAND} -E sleep 0.1)
endforeach()
if(tcp_port STREQUAL "")
  message(FATAL_ERROR "the incremental TCP worker never wrote its port")
endif()
set(tcp_mine ${QARM} --input-qbt=${tcp_qbt} ${MINE_FLAGS}
  --checkpoint=${tcp_qcp} --append --format=csv --threads=2
  --worker=127.0.0.1:${tcp_port})
execute_process(COMMAND ${tcp_mine}
  OUTPUT_QUIET ERROR_VARIABLE tcp_err RESULT_VARIABLE rc)
if(rc EQUAL 0)
  execute_process(COMMAND ${QARM} append --input=${DELTA} --schema=${SCHEMA}
    --output=${tcp_qbt} OUTPUT_QUIET ERROR_VARIABLE tcp_err RESULT_VARIABLE rc)
endif()
if(rc EQUAL 0)
  execute_process(COMMAND ${tcp_mine}
    OUTPUT_VARIABLE tcp_rules ERROR_VARIABLE tcp_err RESULT_VARIABLE rc)
endif()
execute_process(
  COMMAND sh -c "kill -TERM $(cat '${tcp_pid_file}') 2>/dev/null; true")
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "the TCP leg exited with ${rc}:\n${tcp_err}")
endif()
if(NOT tcp_err MATCHES "# incremental: base=")
  message(FATAL_ERROR
    "mine --append --worker did not take the incremental path:\n${tcp_err}")
endif()
if(NOT tcp_rules STREQUAL baseline)
  message(FATAL_ERROR
    "mine --append --worker rules differ from the from-scratch mine\n"
    "--- baseline\n${baseline}\n--- tcp\n${tcp_rules}")
endif()
