// Cache accelerator: the memcached-style full-replication cache of the
// paper's introduction (Fig. 1). Shows why concurrent replication matters:
// it measures replica *lag* (DB commit -> visible on the replica) and data
// *staleness* under a steady update stream, for the serial baseline vs. the
// concurrent Transaction Manager.
//
// Run: ./build/examples/cache_accelerator [num_updates]

#include <cstdio>
#include <cstdlib>

#include "common/clock.h"
#include "txrep/system.h"
#include "workload/synthetic.h"

namespace {

void Check(const txrep::Status& status, const char* what) {
  if (!status.ok()) {
    std::fprintf(stderr, "%s failed: %s\n", what, status.ToString().c_str());
    std::exit(1);
  }
}

struct LagReport {
  double mean_ms = 0;
  double p95_ms = 0;
  double max_ms = 0;
  double total_s = 0;
};

LagReport RunOnce(bool concurrent, int num_updates) {
  txrep::TxRepOptions options;
  options.concurrent_replication = concurrent;
  options.cluster.num_nodes = 5;
  options.cluster.node.service_time_micros = 60;  // Simulated network hop.
  options.cluster.node.service_slots = 4;
  options.tm.top_threads = 20;
  options.tm.bottom_threads = 20;
  options.publisher.batch_size = 50;
  txrep::TxRepSystem sys(options);

  txrep::workload::SyntheticWorkload workload(
      {.num_items = 2000, .hot_range = 2000, .seed = 17});
  Check(workload.CreateSchema(sys.database()), "CreateSchema");
  Check(workload.Populate(sys.database()), "Populate");
  Check(sys.Start(), "Start");

  txrep::Stopwatch sw;
  Check(workload.Run(sys.database(), num_updates), "update stream");
  Check(sys.SyncToLatest(), "SyncToLatest");
  const double total_s = sw.ElapsedSeconds();

  const txrep::Histogram& lag = sys.lag_histogram();
  return LagReport{lag.Mean() / 1000.0, lag.Percentile(0.95) / 1000.0,
                   static_cast<double>(lag.max()) / 1000.0, total_s};
}

}  // namespace

int main(int argc, char** argv) {
  const int num_updates = argc > 1 ? std::atoi(argv[1]) : 1500;

  std::printf("replaying %d update transactions into the cache replica...\n\n",
              num_updates);
  LagReport serial = RunOnce(/*concurrent=*/false, num_updates);
  LagReport concurrent = RunOnce(/*concurrent=*/true, num_updates);

  std::printf("%-22s %12s %12s\n", "replication lag", "serial", "concurrent");
  std::printf("%-22s %10.2fms %10.2fms\n", "mean", serial.mean_ms,
              concurrent.mean_ms);
  std::printf("%-22s %10.2fms %10.2fms\n", "p95", serial.p95_ms,
              concurrent.p95_ms);
  std::printf("%-22s %10.2fms %10.2fms\n", "max (worst staleness)",
              serial.max_ms, concurrent.max_ms);
  std::printf("%-22s %11.2fs %11.2fs\n", "total catch-up", serial.total_s,
              concurrent.total_s);
  std::printf(
      "\nThe concurrent TM keeps the cache fresher: stale reads are served "
      "for a\nshorter window after each database commit (paper §1: 'shortening "
      "the lag\nfor the replica would significantly reduce the probability of "
      "exposing\nstale data').\n");
  return 0;
}
