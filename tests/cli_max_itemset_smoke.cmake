# --max-itemset-size: mines the Figure 1 People table with and without a cap
# of 2. No capped rule may have more than 2 items, and the capped rules must
# be exactly the uncapped run's rules of at most 2 items, in order. That is
# what the library's MinerOptions::max_itemset_size yields: the cap only
# stops the level-wise loop, rules are emitted level by level, and a rule's
# interest flag depends only on rules and itemsets of its own size.
file(WRITE "${WORK_DIR}/people_cap.csv"
"Age,Married,NumCars\n23,No,1\n25,Yes,1\n29,No,0\n34,Yes,2\n38,Yes,2\n")
set(COMMON --input=${WORK_DIR}/people_cap.csv
    --schema=Age:quant,Married:cat,NumCars:quant
    --minsup=0.4 --minconf=0.5 --maxsup=1.0 --intervals=4 --interest=1.1
    --format=csv)

execute_process(COMMAND ${QARM} ${COMMON}
  OUTPUT_VARIABLE full RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "uncapped qarm exited with ${rc}")
endif()
execute_process(COMMAND ${QARM} ${COMMON} --max-itemset-size=2
  OUTPUT_VARIABLE capped RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "qarm --max-itemset-size=2 exited with ${rc}")
endif()

# Keeps the header and the rules of at most `max` items (one "<" per item).
function(rules_up_to text max out_var)
  string(REPLACE "\n" ";" lines "${text}")
  set(kept "")
  set(wider 0)
  foreach(line IN LISTS lines)
    string(REGEX MATCHALL "<" items "${line}")
    list(LENGTH items n)
    if(n GREATER max)
      math(EXPR wider "${wider} + 1")
    else()
      string(APPEND kept "${line}\n")
    endif()
  endforeach()
  set(${out_var} "${kept}" PARENT_SCOPE)
  set(${out_var}_wider ${wider} PARENT_SCOPE)
endfunction()

rules_up_to("${capped}" 2 capped_kept)
if(NOT capped_kept_wider EQUAL 0)
  message(FATAL_ERROR "--max-itemset-size=2 printed ${capped_kept_wider} "
                      "rules with more than 2 items")
endif()
rules_up_to("${full}" 2 full_kept)
if(full_kept_wider EQUAL 0)
  message(FATAL_ERROR "the uncapped run has no rule above 2 items; the "
                      "cap is not exercised")
endif()
if(NOT capped_kept STREQUAL full_kept)
  message(FATAL_ERROR "capped rules differ from the uncapped run's rules "
                      "of at most 2 items:\n${capped}\n---\n${full_kept}")
endif()
