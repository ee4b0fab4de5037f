//go:build race

package ringmesh

// The race detector slows instrumented code by several times, so the
// wall-clock bounds of the geometry tests stretch under -race.
func init() { wallClockScale = 10 }
