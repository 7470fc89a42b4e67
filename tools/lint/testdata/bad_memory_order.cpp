// lbb-lint negative fixture for the memory-order rule: weaker-than-seq_cst
// orders, which no file may use.  Never compiled.
#include <atomic>

inline int bad_memory_orders(std::atomic<int>& x) {
  x.store(1, std::memory_order_relaxed);             // BAD
  int a = x.load(std::memory_order_acquire);         // BAD
  x.store(2, std::memory_order_release);             // BAD
  int b = x.fetch_add(1, std::memory_order_acq_rel); // BAD
  int c = x.load(std::memory_order::relaxed);        // BAD (enum form)

  x.store(3, std::memory_order_seq_cst);  // OK: seq_cst is the policy
  int d = x.load();                       // OK: seq_cst default

  // memory_order_relaxed in a comment must not fire.

  // lbb-lint: allow(memory-order): fixture -- documents the allow
  // mechanism.
  int e = x.load(std::memory_order_acquire);  // OK: suppressed

  return a + b + c + d + e;
}
