package main

import (
	"errors"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"syscall"
	"time"
	"unsafe"
)

// The harness and the SUT run on disjoint CPUs. Left to the scheduler, a
// loopback client and its server are pulled onto one core (every request
// is a wake-up of the peer) while the other idles: ten ingest-saturate
// runs of one seed ranged 454k-579k comments/s unpinned, and each run kept
// its own level from start to finish; pinned they ranged 403k-431k with
// eight of ten inside 2%. So the SUT gets the first CPU this process may
// use and the harness every other one. With a single CPU nothing is
// pinned and the header says so.
var sutCPUs, harnessCPUs []int

// cpuSet is a Linux affinity mask for CPUs 0-1023.
type cpuSet [16]uint64

func getAffinity() ([]int, error) {
	var s cpuSet
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(s), uintptr(unsafe.Pointer(&s))); e != 0 {
		return nil, e
	}
	var cpus []int
	for i := 0; i < len(s)*64; i++ {
		if s[i/64]&(1<<(i%64)) != 0 {
			cpus = append(cpus, i)
		}
	}
	return cpus, nil
}

// setAffinity moves one thread (0: the calling one) onto cpus.
func setAffinity(tid int, cpus []int) error {
	var s cpuSet
	for _, c := range cpus {
		s[c/64] |= 1 << (c % 64)
	}
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(s), uintptr(unsafe.Pointer(&s))); e != 0 {
		return e
	}
	return nil
}

// splitCPUs reserves the SUT's CPU and moves every thread the harness has
// so far onto the others; threads started later inherit the mask.
func splitCPUs() error {
	all, err := getAffinity()
	if err != nil || len(all) < 2 {
		return err
	}
	tasks, err := os.ReadDir("/proc/self/task")
	if err != nil {
		return err
	}
	for _, t := range tasks {
		tid, err := strconv.Atoi(t.Name())
		if err != nil {
			continue
		}
		// A thread can exit between the listing and the call.
		if err := setAffinity(tid, all[1:]); err != nil && !errors.Is(err, syscall.ESRCH) {
			return err
		}
	}
	sutCPUs, harnessCPUs = all[:1], all[1:]
	return nil
}

// onSUTCPUs runs fn on a thread confined to the SUT's CPUs. A process
// started inside fn inherits that confinement.
func onSUTCPUs(fn func() error) error {
	if len(sutCPUs) == 0 {
		return fn()
	}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	if err := setAffinity(0, sutCPUs); err != nil {
		return err
	}
	err := fn()
	if e := setAffinity(0, harnessCPUs); e != nil && err == nil {
		err = e
	}
	return err
}

// startSUT starts cmd on the SUT's CPUs. The Go runtime sizes GOMAXPROCS
// from the affinity mask it starts under, so a pinned SUT runs with
// GOMAXPROCS = len(sutCPUs).
func startSUT(cmd *exec.Cmd) error { return onSUTCPUs(cmd.Start) }

// sutProcs is the GOMAXPROCS the SUT runs with.
func sutProcs() int {
	if len(sutCPUs) > 0 {
		return len(sutCPUs)
	}
	return runtime.NumCPU()
}

// refSpin times a fixed register-only loop (about 200 ms on the reference
// host) on the SUT's CPU while the SUT is not running. The loop touches no
// memory, so it reads the core's clock and nothing else: back to back it
// repeats within 1%, except that the reference host switches every few
// seconds between two speeds 26% apart. It runs before and after every
// workload; when the two readings disagree, the host, not the program,
// moved during the run.
func refSpin() float64 {
	var d time.Duration
	spin := func() error {
		t := time.Now()
		x := uint64(88172645463325252)
		for i := 0; i < 107_000_000; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		d = time.Since(t)
		spinSink = x
		return nil
	}
	if err := onSUTCPUs(spin); err != nil {
		_ = spin() // could not move there: time the loop where it is
	}
	return ms(d)
}

var spinSink uint64 // keeps the loop from being optimised away

// disturbed reports whether the sentinel moved by more than 5% across the
// run.
func (r *report) disturbed() bool {
	return math.Abs(r.spin[1]-r.spin[0]) > 0.05*math.Min(r.spin[0], r.spin[1])
}
