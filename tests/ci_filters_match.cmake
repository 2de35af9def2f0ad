# Checks every `ctest -R "a|b|c"` filter in the CI workflow against this
# build tree: each alternative must match at least one test. A token that
# matches nothing silently drops the suites it was meant to put under a
# sanitizer.
#
#   cmake -DCI_YML=<ci.yml> -DCTEST=<ctest> -DBUILD_DIR=<build tree>
#         -P ci_filters_match.cmake
file(READ "${CI_YML}" yml)
string(REGEX MATCHALL "-R \"[^\"]*\"" filters "${yml}")
if(NOT filters)
  message(FATAL_ERROR "no -R filters found in ${CI_YML}")
endif()
set(tokens "")
foreach(filter IN LISTS filters)
  string(REGEX REPLACE "^-R \"(.*)\"$" "\\1" alternation "${filter}")
  string(REPLACE "|" ";" alternatives "${alternation}")
  list(APPEND tokens ${alternatives})
endforeach()
list(REMOVE_DUPLICATES tokens)

set(unmatched "")
foreach(token IN LISTS tokens)
  execute_process(
    COMMAND ${CTEST} -N -R "${token}"
    WORKING_DIRECTORY ${BUILD_DIR}
    OUTPUT_VARIABLE listing
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "ctest -N -R ${token} exited with ${rc}")
  endif()
  if(NOT listing MATCHES "Test +#")
    list(APPEND unmatched "${token}")
  endif()
endforeach()
if(unmatched)
  list(JOIN unmatched ", " names)
  message(FATAL_ERROR "CI -R tokens that match no test: ${names}")
endif()
list(LENGTH tokens count)
message(STATUS "all ${count} CI -R tokens match a test")
