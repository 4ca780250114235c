//go:build !race

package bench_test

// Timing-sensitive gate levels, at their real acceptance values. The
// race-instrumented build (gates_race_test.go) loosens both: under the
// race detector every operation stretches, so latency ratios stop
// measuring the mechanism under test. `make storm-smoke`,
// `make bench-storm` and `make bench-txn` verify the real budgets
// without -race.
const (
	// Admitted-p99 envelope relative to unloaded p99 in TestStormSmoke.
	stormLatencySlack = 2.0
	// Cross-shard commit throughput gain gate in TestTxnThroughput:
	// the concurrent commit path vs the sequential legacy baseline.
	txnCrossGainGate = 2.0
)
