package main

import (
	"os"
	"strconv"
	"strings"
	"time"
)

// cpuSeconds returns the machine's CPU time since boot from the first
// line of /proc/stat, summed over the CPUs, in seconds (the kernel counts
// in USER_HZ ticks of 1/100 s): busy is the time the CPUs ran anything
// (user, nice, system, irq and softirq), stolen the time the hypervisor
// gave to other guests while these CPUs wanted to run (steal). Both are 0
// where /proc/stat is unavailable.
func cpuSeconds() (busy, stolen float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	tick := func(i int) float64 {
		v, _ := strconv.ParseFloat(f[i], 64)
		return v / 100
	}
	return tick(1) + tick(2) + tick(3) + tick(6) + tick(7), tick(8)
}

// stopwatch times an interval on the wall clock and the machine's CPU
// time in it.
type stopwatch struct {
	start        time.Time
	busy, stolen float64
}

func startWatch() stopwatch {
	busy, stolen := cpuSeconds()
	return stopwatch{start: time.Now(), busy: busy, stolen: stolen}
}

// lap is a timed interval: its wall time and the CPU time the machine
// ran and had stolen in it.
type lap struct{ wall, busy, stolen float64 }

func (w stopwatch) lap() lap {
	wall := since(w.start)
	busy, stolen := cpuSeconds()
	return lap{wall: wall, busy: busy - w.busy, stolen: stolen - w.stolen}
}

// net is the wall time the interval would have taken had no CPU time
// been stolen: the wall time times the share of the CPU time the machine
// asked for that it got. Steal slows whatever runs while it happens, so
// the share is the rate at which the timed code ran.
func (l lap) net() float64 {
	if asked := l.busy + l.stolen; asked > 0 {
		return l.wall * l.busy / asked
	}
	return l.wall
}
