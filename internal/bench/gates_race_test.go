//go:build race

package bench_test

// Race-detector build: loosened gates. Instrumentation multiplies the
// cost of the exact code paths these tests meter (per-op atomic and
// channel traffic), so the measured ratios reflect the detector, not
// the mechanism. The -race runs keep the behavioral assertions; the
// real budgets are gated by the non-race targets (`make storm-smoke`,
// `make bench-storm`, `make bench-txn`).
const (
	stormLatencySlack = 4.0
	// Instrumentation inflates the CPU-bound concurrent path more than
	// the sync-bound legacy path, compressing the measured gain; the
	// real >= 2x acceptance runs without -race (`make bench-txn`).
	txnCrossGainGate = 1.5
)
