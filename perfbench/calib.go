package main

import (
	"runtime"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The host this benchmark runs on is shared: from one minute to the next
// its speed drifts by tens of percent (mostly time stolen from the virtual
// CPUs), which moves every timing of the program alike. The benchmark
// therefore runs a calibration kernel, fixed work that is the same in
// every build of the program, after every read round and commit window,
// and divides a phase's timings by the kernel's mean time in that phase
// over calRef. A change to the program moves the scaled figures; a slow
// stretch of the host moves the kernel too and mostly cancels out.
//
// The kernel runs on every P at once: a sequential read-modify-write pass
// over a private 8 MiB buffer, then calHops dependent random reads from
// it. The buffers together are larger than the host's caches, so the
// kernel pays for memory bandwidth and latency, as the program's
// allocation-heavy reads do, and not only for the processor's speed. They
// are mapped outside the Go heap: on it they would raise the collector's
// heap goal and make the program collect less often than it does alone.
const (
	calWords = 1 << 20 // 8 MiB of uint64 per P
	calHops  = 1 << 17
	// calRef is the kernel's wall time on a quiet reference host (2 vCPUs
	// of an Intel Xeon); scaled timings read as they would there.
	calRef = 7 * time.Millisecond
)

var (
	calBufs [][]uint64
	calSink uint64
	calMu   sync.Mutex
)

// calibrate collects garbage, so that no collection runs beside the
// kernel, then runs the kernel on every P at the same time and returns
// what the kernel alone cost.
func calibrate() cost {
	runtime.GC()
	n := runtime.GOMAXPROCS(0)
	for len(calBufs) < n {
		b, err := syscall.Mmap(-1, 0, calWords*8, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
		if err != nil {
			panic(err)
		}
		calBufs = append(calBufs, unsafe.Slice((*uint64)(unsafe.Pointer(&b[0])), calWords))
	}
	c0 := now()
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(buf []uint64) {
			defer wg.Done()
			s := kernel(buf)
			calMu.Lock()
			calSink += s
			calMu.Unlock()
		}(calBufs[i])
	}
	wg.Wait()
	var c cost
	c.add(c0, now())
	return c
}

func kernel(buf []uint64) uint64 {
	x, sum := uint64(0x9E3779B97F4A7C15), uint64(0)
	mask := uint64(len(buf) - 1)
	for i := range buf {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		buf[i] += x
		sum += buf[i]
	}
	j := sum & mask
	for h := 0; h < calHops; h++ {
		j = (buf[j] + j) & mask
		sum += j
	}
	return sum
}

// meter cuts a timed phase into windows, runs the calibration kernel
// inside them and keeps what the benchmark's own work cost, so that it
// can be taken out of the phase's figures.
type meter struct {
	own   cost   // answer checks and calibration, with its collection
	cal   []cost // each run of the kernel alone
	marks []mark // the phase's start, then the end of each window
}

// mark is a phase's state at a window boundary.
type mark struct {
	n   int  // operations done
	at  cost // clock, process CPU and allocation totals
	own cost
}

// win is one window: operations [n0, n1) and the time they took, less
// the benchmark's own work.
type win struct {
	n0, n1    int
	wall, cpu time.Duration
}

func (m *meter) start() { m.marks = []mark{m.mark(0)} }

func (m *meter) mark(n int) mark { return mark{n, now(), m.own} }

// calibrate runs the kernel once and books it as the benchmark's own work.
func (m *meter) calibrate() {
	c0 := now()
	m.cal = append(m.cal, calibrate())
	m.own.add(c0, now())
}

// cut ends a window at n operations.
func (m *meter) cut(n int) { m.marks = append(m.marks, m.mark(n)) }

// endRound ends a window at n operations once it has lasted window, and
// at the end of the phase; a last stretch shorter than half a window
// joins the window before it.
func (m *meter) endRound(n int, last bool) {
	next := m.mark(n)
	prev := m.marks[len(m.marks)-1]
	switch {
	case last && next.at.wall-prev.at.wall < window/2 && len(m.marks) > 1:
		m.marks[len(m.marks)-1] = next
	case last || next.at.wall-prev.at.wall >= window:
		m.marks = append(m.marks, next)
	}
}

func (m *meter) windows() []win {
	var ws []win
	for i := 1; i < len(m.marks); i++ {
		a, b := m.marks[i-1], m.marks[i]
		ws = append(ws, win{
			n0: a.n, n1: b.n,
			wall: (b.at.wall - a.at.wall) - (b.own.wall - a.own.wall),
			cpu:  (b.at.cpu - a.at.cpu) - (b.own.cpu - a.own.cpu),
		})
	}
	return ws
}

// scale is the calibration scale of the phase (scaleOf).
func (m *meter) scale() (wall, cpu float64) { return scaleOf(m.cal) }

// scaleOf is the kernel's mean wall time over calRef, above 1 where the
// host ran slower than the reference, and the same for its CPU time
// against calRef on every P. The mean, not the median: time stolen from
// the virtual CPUs comes in bursts that hit some runs of the kernel and
// miss others, and throughput pays the mean.
func scaleOf(ks []cost) (wall, cpu float64) {
	if len(ks) == 0 {
		return 1, 1
	}
	var w, c time.Duration
	for _, k := range ks {
		w += k.wall
		c += k.cpu
	}
	n := float64(len(ks))
	return float64(w) / n / float64(calRef), float64(c) / n / float64(calRef*time.Duration(runtime.GOMAXPROCS(0)))
}
