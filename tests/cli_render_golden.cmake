# Golden bytes of the CLI's rule outputs on the render fixture
# (golden/render/fixture.csv): the mine text format with --itemsets and
# "[interesting]" marks, --interesting-only, CSV, JSON (its "stats" object,
# which carries timings, masked), and `rules dump` as text and JSON. Each
# output must equal its golden file byte for byte; a mismatch leaves the
# actual bytes in WORK_DIR/render_golden/.
#
#   cmake -DQARM=<qarm> -DGOLDEN_DIR=<dir> -DWORK_DIR=<dir>
#         -P cli_render_golden.cmake
set(OUT ${WORK_DIR}/render_golden)
file(REMOVE_RECURSE ${OUT})
file(MAKE_DIRECTORY ${OUT})
set(MINE ${QARM} --input=${GOLDEN_DIR}/fixture.csv
    --schema=Age:quant,Drink:cat,City:cat,Cars:quant
    --minsup=0.2 --minconf=0.6 --maxsup=0.6 --k=5 --interest=1.1)

set(failed "")
# run(<golden name> <args...>): runs qarm in OUT with stdout to the file
# and compares it with the golden.
function(run name)
  execute_process(COMMAND ${ARGN}
    WORKING_DIRECTORY ${OUT}
    OUTPUT_FILE ${OUT}/${name}
    ERROR_VARIABLE err
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${name}: qarm exited with ${rc}: ${err}")
  endif()
  if(name MATCHES "\\.json$")
    # {"stats":{...},"rules":[ -> {"stats":{},"rules":[
    file(READ ${OUT}/${name} json)
    string(REGEX REPLACE "^{\"stats\":.*,\"rules\":\\[" "{\"stats\":{},\"rules\":["
           json "${json}")
    file(WRITE ${OUT}/${name} "${json}")
  endif()
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files ${OUT}/${name}
            ${GOLDEN_DIR}/cli_${name}
    RESULT_VARIABLE differs)
  if(NOT differs EQUAL 0)
    set(failed "${failed} ${name}" PARENT_SCOPE)
  endif()
endfunction()

run(mine.txt ${MINE} --itemsets --output-rules=${OUT}/render.qrs)
run(mine_interesting.txt ${MINE} --interesting-only)
run(mine.csv ${MINE} --format=csv)
run(mine_interesting.csv ${MINE} --format=csv --interesting-only)
run(mine.json ${MINE} --format=json)
run(mine_interesting.json ${MINE} --format=json --interesting-only)
# A relative path: the JSON form names the file.
run(dump.txt ${QARM} rules dump render.qrs)
run(dump.json ${QARM} rules dump render.qrs --format=json)
run(dump_filtered.txt ${QARM} rules dump render.qrs --interesting-only
    --attr=City)

if(failed)
  message(FATAL_ERROR "outputs differ from their goldens:${failed} "
          "(actual bytes in ${OUT})")
endif()
message(STATUS "every CLI output matches its golden")
