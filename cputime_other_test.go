//go:build !linux

package repro_test

import "time"

// processCPU: no nanosecond CPU clock is wired up off Linux, so the
// cpu columns of E8 and the scaling ladder read zero there.
func processCPU() time.Duration { return 0 }
