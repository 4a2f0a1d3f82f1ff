package main

import (
	"math"
	"syscall"
	"unsafe"
)

// clockProcessCPUTimeID is CLOCK_PROCESS_CPUTIME_ID: the scheduler's exact
// run-time sum over the process's threads. getrusage's user and system times
// are sampled at the 4 ms tick instead, which on the mostly idle tiered_relay
// (about 0.7 CPU-seconds in a window) alone spread mib_per_cpu_s by 15-20%.
const clockProcessCPUTimeID = 2

// cpuSeconds is the process's CPU time so far.
func cpuSeconds() float64 {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return math.NaN()
	}
	return float64(ts.Sec) + float64(ts.Nsec)/1e9
}
