package main

import "testing"

// The kernel must do the same work on every call, or scaling by its time
// would scale by its input.
func TestCalibrationKernelIsFixed(t *testing.T) {
	events, trees := calEventLoop(), calTreeWalk()
	if events != calEventLoop() || trees != calTreeWalk() {
		t.Fatal("calibration kernel results differ between calls")
	}
	// Every node of a full tree of depth d is walked twice: the values
	// 1..2^(d+1)-1, summed twice, per tree.
	n := uint64(1)<<(calDepth+1) - 1
	if want := calTrees * 2 * n * (n + 1) / 2; trees != want {
		t.Fatalf("tree half sums to %d, want %d", trees, want)
	}
	if d := calibrate(); d <= 0 {
		t.Fatalf("calibrate() = %v", d)
	}
}
