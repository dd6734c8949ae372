package repro_test

import (
	"syscall"
	"time"
	"unsafe"
)

// processCPU is the process's CPU time off the kernel's nanosecond
// clock (getrusage moves by scheduler ticks).
func processCPU() time.Duration {
	var ts syscall.Timespec
	const clockProcessCPU = 2 // CLOCK_PROCESS_CPUTIME_ID
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPU, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}
