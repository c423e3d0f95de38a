#ifndef TXREP_CHECK_LOCK_ORDER_H_
#define TXREP_CHECK_LOCK_ORDER_H_

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

namespace txrep::check {

/// Runtime lock-order checker (DESIGN.md §8).
///
/// Records, per thread, the chain of currently-held check::Mutex instances
/// and maintains a global directed graph over mutex *names* ("holding A,
/// acquired B" adds the edge A -> B). An acquisition that would close a cycle
/// in that graph is a potential deadlock — two threads could take the same
/// pair of locks in opposite orders — and is reported the *first* time the
/// inverted order is even attempted, long before an actual deadlock needs
/// the unlucky interleaving.
///
/// Granularity is the mutex name (one graph node per annotated lock site),
/// so all instances of e.g. "bq.mu" collapse into one node. Same-name
/// nesting (holding one "bq.mu" while acquiring another) is reported as a
/// violation too: distinct instances behind one name have no defined order.
///
/// check::Mutex calls the hooks only in TXREP_DEBUG_CHECKS builds (the
/// `debug-checks` CI flavor), where a violation aborts the process with the
/// offending chain. The registry itself is always compiled and directly
/// usable, so its tests run in every flavor.
///
/// Thread-safe. The registry deliberately uses a raw std::mutex internally —
/// it cannot check itself.
class LockOrderRegistry {
 public:
  /// Process-wide instance used by the check::Mutex hooks.
  static LockOrderRegistry& Instance();

  /// Called before blocking on `name` (instance `id`). Records the order
  /// edges from every lock the calling thread already holds. Returns a
  /// human-readable violation description if an edge closes a cycle (or
  /// nests a name on itself); nullopt when the order is consistent with
  /// everything seen so far. The offending edge is *not* added, so one bad
  /// call site keeps reporting instead of poisoning the graph.
  std::optional<std::string> NoteAcquire(const void* id, const char* name);

  /// Called after the lock is actually held; pushes it on the thread's chain.
  void NoteAcquired(const void* id, const char* name);

  /// Called on unlock; removes the instance from the thread's chain (it need
  /// not be the innermost — out-of-order releases are legal).
  void NoteReleased(const void* id);

  /// Names currently held by the calling thread, outermost first.
  std::vector<std::string> HeldByThisThread() const;

  /// Number of distinct order edges observed (for tests).
  size_t EdgeCount() const;

  /// Forgets all edges (not the per-thread chains). Test isolation only.
  void ClearEdges();

 private:
  LockOrderRegistry() = default;

  struct Impl;
  Impl& impl() const;
};

/// Aborts with `violation` via the logging sink. Called by the Mutex hooks;
/// split out so tests can cover the message formatting without dying.
[[noreturn]] void DieOnLockOrderViolation(const std::string& violation);

}  // namespace txrep::check

#endif  // TXREP_CHECK_LOCK_ORDER_H_
