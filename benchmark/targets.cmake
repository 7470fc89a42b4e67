# Benchmark targets, included at the end of the top-level directory by
# inject.cmake (run.py configures with
# -DCMAKE_PROJECT_lbb_INCLUDE=benchmark/inject.cmake), so the repository's
# own CMakeLists.txt stays untouched and the libraries are built with the
# project's default flags.
#
#   lbb_benchmark         end-to-end runs: no allocation probe, spans
#                         compiled out
#   lbb_benchmark_traced  the same sources plus tools/alloc_probe (live
#                         allocation counters) and in-memory span tracing
set(_lbb_benchmark_sources
  ${CMAKE_CURRENT_LIST_DIR}/main.cpp
  ${CMAKE_CURRENT_LIST_DIR}/mc_paper.cpp
  ${CMAKE_CURRENT_LIST_DIR}/large_n.cpp
  ${CMAKE_CURRENT_LIST_DIR}/serve.cpp
  ${CMAKE_CURRENT_LIST_DIR}/layers.cpp
  ${CMAKE_CURRENT_LIST_DIR}/harness.cpp
)
set(_lbb_benchmark_libs
  lbb_core lbb_problems lbb_experiments lbb_runtime lbb_service lbb_stats
  lbb_sim Threads::Threads)

add_executable(lbb_benchmark ${_lbb_benchmark_sources})
target_link_libraries(lbb_benchmark PRIVATE ${_lbb_benchmark_libs})

# The probe TU goes last so the benchmark's own template instantiations win
# the vague-linkage pick (see bench/CMakeLists.txt).
add_executable(lbb_benchmark_traced ${_lbb_benchmark_sources}
  ${CMAKE_SOURCE_DIR}/tools/alloc_probe/alloc_probe.cpp)
target_link_libraries(lbb_benchmark_traced PRIVATE ${_lbb_benchmark_libs})
target_compile_definitions(lbb_benchmark_traced PRIVATE LBB_BENCHMARK_TRACED=1)
