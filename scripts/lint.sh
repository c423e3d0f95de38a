#!/usr/bin/env bash
# Project-specific lint rules that grep can enforce (no clang-tidy needed):
#
#  1. All locking in src/ goes through the annotated wrappers in
#     src/check/mutex.h. Raw std::mutex & friends defeat both the clang
#     thread-safety analysis and the runtime lock-order registry, so they are
#     forbidden outside src/check/ itself.
#
#  2. Metric name literals ("txrep_...") live only in src/obs/names.h; every
#     other file must use the named constants so dashboards and tests agree
#     on one spelling (DESIGN.md §Observability).
#
#  3. Direct file I/O is confined to src/kv/ (disk-backed nodes) and
#     src/recov/ (checkpoints, manifests, cursors). Everything else goes
#     through those layers, so crash-safety reasoning (fsync ordering, torn
#     writes, tmp-rename commits) lives in exactly two places (DESIGN.md §9).
#
#  4. The apply path ships write sets through the batch API (DESIGN.md §10):
#     the appliers, the TM apply stage, the txn buffer publish and the
#     bootstrap tail replay must not call per-op Put/Delete on the store —
#     one op per round trip forfeits the batching amortization and silently
#     regresses replay throughput.
#
#  5. Span/stage name literals ("span....") live only in src/trace/names.h,
#     the tracing analogue of rule 2: exporters and tests derive display
#     names from the constants so traces, dashboards and docs agree on one
#     spelling (DESIGN.md §11).
#
#  6. Socket / fd syscalls (socket, connect, accept, send, recv, poll, ...)
#     are confined to src/net/. Everything else talks through net::Socket /
#     FrameTransport / NetEndpoint / NetSubscription, so wire-error handling,
#     partial-write loops and EINTR retries live in exactly one layer
#     (DESIGN.md §13).
#
#  7. Raw B-link version-word loads (OptLatch::RawVersionWord) are confined
#     to src/blink/. Outside the index, a raw word peek bypasses the
#     ReadBegin/ReadValidate protocol — it sees lock/obsolete bits without
#     the acquire pairing that makes the node image trustworthy — so every
#     other layer goes through the optimistic read API (DESIGN.md §14).
#
# Stdlib randomness is the analyzer's det-nondet-rand rule
# (scripts/analyze.sh), not a grep rule here.
#
# Exits non-zero listing every offending line.
set -euo pipefail
cd "$(dirname "$0")/.."

fail=0

raw_locks=$(grep -rnE \
  'std::(mutex|shared_mutex|recursive_mutex|condition_variable|condition_variable_any|lock_guard|unique_lock|shared_lock|scoped_lock)' \
  src --include='*.h' --include='*.cc' \
  | grep -v '^src/check/' || true)
if [[ -n "${raw_locks}" ]]; then
  echo "lint: raw std locking outside src/check/ (use check::Mutex et al.):"
  echo "${raw_locks}"
  fail=1
fi

metric_literals=$(grep -rn '"txrep_' \
  src --include='*.h' --include='*.cc' \
  | grep -v '^src/obs/names\.h' || true)
if [[ -n "${metric_literals}" ]]; then
  echo "lint: metric name literals outside src/obs/names.h (use the constants):"
  echo "${metric_literals}"
  fail=1
fi

file_io=$(grep -rnE \
  '\b(fopen|fclose|fread|fwrite|fsync|fdatasync|ftruncate|pread|pwrite|::open\(|openat|creat\(|opendir|readdir|closedir|mkdir\(|rmdir\(|unlink\(|unlinkat|renameat|std::(o|i)?fstream|ofstream|ifstream)\b' \
  src --include='*.h' --include='*.cc' \
  | grep -vE '^src/(kv|recov)/' || true)
if [[ -n "${file_io}" ]]; then
  echo "lint: direct file I/O outside src/kv/ and src/recov/ (route it through those layers):"
  echo "${file_io}"
  fail=1
fi

apply_path_files=(
  src/core/txn_buffer.cc
  src/core/serial_applier.cc
  src/core/ticket_applier.cc
  src/core/transaction_manager.cc
  src/txrep/bootstrap.cc
)
per_op_apply=$(grep -nE -- '->(Put|Delete)\(' "${apply_path_files[@]}" || true)
if [[ -n "${per_op_apply}" ]]; then
  echo "lint: per-op Put/Delete on the apply path (batch via MultiWrite / TxnBuffer::ApplyTo):"
  echo "${per_op_apply}"
  fail=1
fi

span_literals=$(grep -rn '"span\.' \
  src --include='*.h' --include='*.cc' \
  | grep -v '^src/trace/names\.h' || true)
if [[ -n "${span_literals}" ]]; then
  echo "lint: span name literals outside src/trace/names.h (use the constants):"
  echo "${span_literals}"
  fail=1
fi

socket_calls=$(grep -rnE \
  '\b(socket|socketpair|connect|accept|accept4|bind|listen|setsockopt|getsockopt|getsockname|getpeername|recv|recvfrom|recvmsg|send|sendto|sendmsg|epoll_create1?|epoll_ctl|epoll_wait|poll|ppoll|getaddrinfo|freeaddrinfo|inet_pton|inet_ntop|htons|ntohs|htonl|ntohl)\s*\(' \
  src --include='*.h' --include='*.cc' \
  | grep -v '^src/net/' || true)
if [[ -n "${socket_calls}" ]]; then
  echo "lint: socket syscalls outside src/net/ (use net::Socket / FrameTransport):"
  echo "${socket_calls}"
  fail=1
fi

version_peeks=$(grep -rn 'RawVersionWord' \
  src --include='*.h' --include='*.cc' \
  | grep -v '^src/blink/' || true)
if [[ -n "${version_peeks}" ]]; then
  echo "lint: raw version-word loads outside src/blink/ (use ReadBegin/ReadValidate):"
  echo "${version_peeks}"
  fail=1
fi

if [[ "${fail}" -ne 0 ]]; then
  echo "lint: FAILED"
  exit 1
fi
echo "lint: OK"
