//go:build race

package incr

// raceEnabled reports that this test binary runs under the race detector,
// where sync.Pool drops Puts at random, so a delay build's pooled
// builders are allocated again at random and per-edit byte counts say
// nothing; TestCornerViewsShareArcs skips its byte bound then. It runs
// for real in the plain `go test ./...` CI step.
const raceEnabled = true
