package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"

	"tcodm/internal/atom"
	"tcodm/internal/core"
	"tcodm/internal/obs"
	"tcodm/internal/query"
	"tcodm/internal/temporal"
	"tcodm/internal/value"
	"tcodm/internal/workload"
)

// workloadSpec fixes one workload: its fixture, serving configuration,
// query round and writer.
type workloadSpec struct {
	params  workload.PersonnelParams // Seed comes from --seed
	pool    int                      // serving buffer-pool pages (0 = the engine default, 1024)
	archive bool                     // archive history below the watermark during setup
	wire    bool                     // reads go through pkg/client over a loopback server
	durable bool                     // after the writer: synced commits, a crash and a timed reopen
	warmup  int                      // queries of the round run before timing
	round   func(m *model, rng *rand.Rand, tts ttRange) []qspec
}

const (
	// trailingCommits is the number of commits the writer makes after the
	// reads.
	trailingCommits = 16000
	// durableCommits is the number of commits point-read's durability step
	// makes with SyncOnCommit before its crash.
	durableCommits = 200
	// setups is the number of set-ups per run; setup_s is their median.
	setups = 7
	// window is the least length of a read window: the read phase is cut
	// into windows of whole rounds, each at least this long, and the read
	// timings are medians over windows, so a slow stretch of the host
	// moves a few windows rather than the whole figure.
	window = 2 * time.Second
	// commitWindow is the number of commits per writer window; commit
	// timings are medians over these windows.
	commitWindow = 500
)

var (
	pointParams   = workload.PersonnelParams{Depts: 8, Emps: 150, UpdatesPerEmp: 8, MovesPerEmp: 2, TimeStep: 10}
	historyParams = workload.PersonnelParams{Depts: 8, Emps: 240, UpdatesPerEmp: 18, MovesPerEmp: 2, TimeStep: 10}

	workloads = map[string]*workloadSpec{
		"point-read":   {params: pointParams, wire: true, durable: true, warmup: 60, round: pointMix},
		"history-scan": {params: historyParams, pool: 24, archive: true, warmup: 10, round: historyMix},
	}
)

// runner carries one run's configuration and measurements.
type runner struct {
	name    string
	w       *workloadSpec
	seed    int64
	seconds int
	traced  bool
	dir     string
	runDir  string
	tr      *tracer

	queries []qspec

	// Operation outcomes.
	attempted, failed, wrong int

	reads   reads
	writes  writes
	durable writes // the durability step's synced commits
	setupS  []float64
	setupK  []cost // a calibration run after each set-up
	loadS   []float64
	archS   []float64
	spaceB  int64   // store bytes at the end of the timed phase
	userB   int64   // user-supplied value bytes at the same moment
	recover float64 // seconds of core.Open after Engine.Crash (durability step)
	parseUS []float64
}

// reads is the timed read phase's record.
type reads struct {
	lat    []float64 // ms per read
	kinds  []kind
	wireMS []float64 // client wall minus server elapsed, ms
	dur    time.Duration
	rows   int
	res    obs.Resources
	byKind map[kind]obs.Resources
	before snap
	after  snap
	// m cuts the phase into windows of whole rounds (calib.go).
	m meter
}

// cost is wall time, process CPU and heap allocation spent on something.
type cost struct {
	wall, cpu      time.Duration
	allocB, allocN uint64
}

// writes is the writer's record.
type writes struct {
	lat    []float64 // ms per commit
	begin  []float64 // ms per Engine.Begin
	commit []float64 // ms per Txn.Commit
	acked  []write
	// m cuts the commits into windows of commitWindow (calib.go).
	m      meter
	before snap
	after  snap

	attempted, failed int
}

func (r *runner) run() (*result, error) {
	r.runDir = filepath.Join(r.dir, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(r.runDir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(r.runDir)
	if r.traced {
		r.tr = newTracer()
	}

	var f *fixture
	for i := 0; i < setups; i++ {
		if f != nil {
			if err := f.close(); err != nil {
				return nil, err
			}
		}
		var err error
		if f, err = r.setup(i); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		r.setupS = append(r.setupS, f.setupS)
		r.setupK = append(r.setupK, calibrate())
		r.loadS = append(r.loadS, f.loadS)
		r.archS = append(r.archS, f.archiveS)
	}
	defer f.close()

	deadline := time.Now().Add(time.Duration(r.seconds) * time.Second)
	r.readPhase(f, func() bool { return !time.Now().Before(deadline) })
	space, err := f.space()
	if err != nil {
		return nil, err
	}
	r.spaceB, r.userB = space, f.m.userBytes
	if r.w.durable {
		if err := r.durability(f); err != nil {
			return nil, err
		}
	}
	runtime.GC()
	r.writer(f, &r.writes, trailingCommits)
	r.verify(f.db, f.m)
	r.attempted += r.writes.attempted + r.durable.attempted
	r.failed += r.writes.failed + r.durable.failed
	if r.traced {
		r.parseAnalyze(f)
	}

	res := &result{Correct: r.wrong == 0, Attempted: r.attempted, Failed: r.failed}
	if r.traced {
		res.Metrics = r.layerMetrics(f)
		path := filepath.Join(r.dir, "traces", fmt.Sprintf("%s-seed%d.jsonl", r.name, r.seed))
		if err := r.tr.write(path); err != nil {
			return nil, err
		}
		logf("spans written to %s; traced read throughput %.1f reads/s", path, r.readRate())
		for k, res := range r.reads.byKind {
			n := 0
			for _, x := range r.reads.kinds {
				if x == k {
					n++
				}
			}
			logf("%-10s %6d reads, per read: %s", k, n, perRead(res, n))
		}
	} else {
		res.Metrics = r.endToEnd(f)
	}
	ws, _ := r.reads.m.scale()
	logf("%d reads in %.2fs (%.1f reads/s uncalibrated, less the benchmark's own work; calibration scale %.3f), %d commits; set-ups %v",
		len(r.reads.lat), r.reads.dur.Seconds(), r.readRate(), ws, len(r.writes.lat), r.setupS)
	return res, nil
}

// durability is point-read's durability step, between the reads and the
// writer: a clean close, a reopen with SyncOnCommit, durableCommits
// commits, a crash and a timed reopen in the serving configuration. Every
// acknowledged commit is checked at the end of the run. It comes before
// the writer because recovery on a store whose records have grown into
// overflow chains panics (see README.md, Known faults).
func (r *runner) durability(f *fixture) error {
	if err := f.stopServing(); err != nil {
		return err
	}
	if err := f.db.Close(); err != nil {
		return err
	}
	db, err := r.open(core.Options{Path: f.path, PoolPages: r.w.pool, SyncOnCommit: true})
	if err != nil {
		return err
	}
	f.db = db
	r.writer(f, &r.durable, durableCommits)
	start := time.Now()
	err = f.db.Crash()
	r.tr.add(r.tr.op(), 0, "Engine.Crash", start, time.Since(start))
	if err != nil {
		return err
	}
	start = time.Now()
	f.db, err = r.open(core.Options{Path: f.path, PoolPages: r.w.pool})
	r.recover = time.Since(start).Seconds()
	if err != nil {
		return fmt.Errorf("reopen after crash: %w", err)
	}
	return nil
}

// readPhase runs whole rounds of the workload's queries until done
// reports true at the end of a round.
func (r *runner) readPhase(f *fixture, done func() bool) {
	rd := &r.reads
	rd.byKind = map[kind]obs.Resources{}
	rd.before = takeSnap(f.db)
	start := time.Now()
	rd.m.start()
	for stop := false; !stop; {
		for _, q := range r.queries {
			op := r.tr.op()
			root := r.tr.id()
			var h0 [2]uint64
			if r.traced {
				h0 = execSums(f.db)
			}
			t0 := time.Now()
			rows, info, err := r.exec(f, q.text)
			lat := time.Since(t0)
			r.attempted++
			rd.lat = append(rd.lat, ms(lat))
			rd.kinds = append(rd.kinds, q.kind)
			if err != nil {
				r.failed++
				logf("%s failed: %v", q.kind, err)
			} else {
				rd.rows += len(rows)
				rd.res.Add(info.res)
				kr := rd.byKind[q.kind]
				kr.Add(info.res)
				rd.byKind[q.kind] = kr
				if f.cl != nil {
					rd.wireMS = append(rd.wireMS, ms(lat-info.elapsed))
				}
				c0 := now()
				r.checkRead(f.m, q, rows)
				rd.m.own.add(c0, now())
			}
			if r.traced {
				r.traceRead(f, op, root, t0, lat, info, h0)
			}
		}
		rd.m.calibrate()
		stop = done()
		rd.m.endRound(len(rd.lat), stop)
	}
	rd.dur = time.Since(start)
	rd.after = takeSnap(f.db)
}

// traceRead records one read's spans: the benchmark's root, the call into
// the program and the layers beneath it derived from histogram deltas.
func (r *runner) traceRead(f *fixture, op, root int64, t0 time.Time, lat time.Duration, info execInfo, h0 [2]uint64) {
	h1 := execSums(f.db)
	coreNS := time.Duration(h1[0] - h0[0])
	execNS := time.Duration(h1[1] - h0[1])
	parent := root
	if f.cl != nil {
		parent = r.tr.add(op, parent, "client.Query", t0, lat)
		parent = r.tr.add(op, parent, "server", t0, info.elapsed)
		parent = r.tr.add(op, parent, "Engine.QueryWith", t0, coreNS)
	} else {
		parent = r.tr.add(op, parent, "Engine.QueryWith", t0, lat)
	}
	r.tr.add(op, parent, "query.exec", t0, execNS)
	r.tr.record(op, root, 0, "read", t0, time.Since(t0))
}

// execSums returns the summed nanoseconds of the engine's QueryWith
// (server.query_ns on the wire path) and of query execution (query.ns).
func execSums(db *core.Engine) [2]uint64 {
	reg := db.Metrics()
	return [2]uint64{reg.Histogram("server.query_ns").Snapshot().Sum, reg.Histogram("query.ns").Snapshot().Sum}
}

func (r *runner) checkRead(m *model, q qspec, rows [][]value.V) {
	if err := q.check(m, rows); err != nil {
		r.failed++
		r.wrong++
		logf("wrong answer to %s: %v", q.text, err)
	}
}

type execInfo struct {
	res     obs.Resources
	elapsed time.Duration // server-side elapsed (wire only)
}

// exec runs one query over the wire or in-process.
func (r *runner) exec(f *fixture, text string) ([][]value.V, execInfo, error) {
	if f.cl != nil {
		res, err := f.cl.Query(text)
		if err != nil {
			return nil, execInfo{}, err
		}
		return res.Rows, execInfo{res: res.Res, elapsed: res.Elapsed}, nil
	}
	res, err := f.db.QueryWith(context.Background(), text, core.QueryOptions{})
	if err != nil {
		return nil, execInfo{}, err
	}
	return res.Rows, execInfo{res: res.Res}, nil
}

// writer commits n single-Set transactions in a closed loop: salary
// raises and, every fourth commit, a department move, each from a valid
// instant past the fixture's horizon and past every earlier write.
func (r *runner) writer(f *fixture, wr *writes, n int) {
	rng := rand.New(rand.NewSource(r.seed*31 + 7))
	wr.before = takeSnap(f.db)
	wr.m.start()
	vt := f.db.Now() + 1 // the clock sits at or past the horizon
	// Targets cycle through a seeded permutation, so every employee is
	// written about equally often whatever the seed.
	order := rng.Perm(len(f.m.emps))
	for k := 0; k < n; k++ {
		w := write{e: f.m.emps[order[k%len(order)]], vt: vt + temporal.Instant(k)}
		if k%4 == 3 {
			w.dept, w.v = true, int64(rng.Intn(len(f.m.deptNames)))
		} else {
			w.v = int64(1000 + rng.Intn(9000))
		}
		wr.attempted++
		t0 := time.Now()
		tt, err := r.commitOne(f, wr, w)
		wr.lat = append(wr.lat, ms(time.Since(t0)))
		if (k+1)%commitWindow == 0 || k+1 == n {
			wr.m.calibrate()
			wr.m.cut(k + 1)
		}
		if err != nil {
			wr.failed++
			logf("commit %d failed: %v", k, err)
			continue
		}
		f.m.record(w, tt)
		wr.acked = append(wr.acked, w)
	}
	wr.after = takeSnap(f.db)
}

// commitOne runs one writer transaction with spans around each call.
func (r *runner) commitOne(f *fixture, wr *writes, w write) (temporal.Instant, error) {
	op, root := r.tr.op(), r.tr.id()
	t0 := time.Now()
	tx, err := f.db.Begin()
	wr.begin = append(wr.begin, ms(time.Since(t0)))
	r.tr.add(op, root, "Engine.Begin", t0, time.Since(t0))
	if err != nil {
		return 0, err
	}
	tt := tx.TT()
	v := value.Int(w.v)
	attr := "salary"
	if w.dept {
		v, attr = value.Ref(f.m.deptIDs[w.v]), "dept"
	}
	t1 := time.Now()
	err = tx.Set(w.e.id, attr, v, w.vt)
	r.tr.add(op, root, "Txn.Set", t1, time.Since(t1))
	if err != nil {
		_ = tx.Abort() // the Set's error is the one to report
		return 0, err
	}
	var fs0 uint64
	if r.traced {
		fs0 = fsyncSum(f.db)
	}
	t2 := time.Now()
	err = tx.Commit()
	d := time.Since(t2)
	wr.commit = append(wr.commit, ms(d))
	if r.traced {
		c := r.tr.add(op, root, "Txn.Commit", t2, d)
		r.tr.add(op, c, "wal.fsync", t2, time.Duration(fsyncSum(f.db)-fs0))
		r.tr.record(op, root, 0, "commit", t0, time.Since(t0))
	}
	return tt, err
}

func fsyncSum(db *core.Engine) uint64 { return db.Metrics().Histogram("wal.fsync_ns").Snapshot().Sum }

// verify reads back every acknowledged commit and compares it with the
// shadow model. Each verification is an attempted operation.
func (r *runner) verify(db *core.Engine, m *model) {
	for _, w := range append(r.writes.acked, r.durable.acked...) {
		r.attempted++
		attr := "salary"
		log := w.e.salary
		if w.dept {
			attr, log = "dept", w.e.dept
		}
		want, _ := log.at(w.vt, latest)
		st, err := db.StateAt(w.e.id, w.vt, atom.Now)
		if err != nil {
			r.failed++
			logf("verify %s.%s at %d: %v", w.e.name, attr, w.vt, err)
			continue
		}
		got := st.Vals[attr]
		ok := false
		if w.dept {
			d, isDept := deptOf(m, got)
			ok = isDept && int64(d) == want
		} else {
			s, isInt := integer(got)
			ok = isInt && s == want
		}
		if !ok {
			r.failed++
			r.wrong++
			logf("verify %s.%s at %d: got %v, want %d", w.e.name, attr, w.vt, got, want)
		}
	}
}

// parseAnalyze times query.Parse plus query.Analyze on each distinct text
// of the round (traced runs only).
func (r *runner) parseAnalyze(f *fixture) {
	sch := f.db.Schema()
	for rep := 0; rep < 5; rep++ {
		for _, q := range r.queries {
			op := r.tr.op()
			t0 := time.Now()
			parsed, err := query.Parse(q.text)
			if err == nil {
				_, err = query.Analyze(parsed, sch)
			}
			d := time.Since(t0)
			r.tr.add(op, 0, "query.ParseAnalyze", t0, d)
			if err != nil {
				logf("parse/analyze %q: %v", q.text, err)
				continue
			}
			r.parseUS = append(r.parseUS, us(d))
		}
	}
}

// open wraps core.Open in a span.
func (r *runner) open(opts core.Options) (*core.Engine, error) {
	t0 := time.Now()
	db, err := core.Open(opts)
	r.tr.add(r.tr.op(), 0, "core.Open", t0, time.Since(t0))
	return db, err
}

// snap is a point-in-time copy of the engine's counters and histograms
// plus the process's CPU time and the Go runtime's allocation and GC
// totals.
type snap struct {
	c              map[string]uint64
	h              map[string]obs.HistSnapshot
	cpu, gcCPU     float64 // seconds
	allocB, allocN uint64
}

var histNames = []string{"server.query_ns", "query.ns", "server.queue_wait_ns", "pool.read_ns", "wal.fsync_ns"}

func takeSnap(db *core.Engine) snap {
	s := snap{c: db.CounterSnapshot(), h: map[string]obs.HistSnapshot{}}
	for _, n := range histNames {
		s.h[n] = db.Metrics().Histogram(n).Snapshot()
	}
	c := now()
	s.cpu = c.cpu.Seconds()
	s.allocB, s.allocN = c.allocB, c.allocN
	samples := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(samples)
	s.gcCPU = samples[0].Value.Float64()
	return s
}

// now reads the wall clock, the process's CPU time and the heap
// allocation totals.
func now() cost {
	c := cost{wall: time.Duration(time.Now().UnixNano())}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		c.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	samples := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/heap/allocs:objects"}}
	metrics.Read(samples)
	c.allocB, c.allocN = samples[0].Value.Uint64(), samples[1].Value.Uint64()
	return c
}

// add accumulates the cost between two readings.
func (c *cost) add(from, to cost) {
	c.wall += to.wall - from.wall
	c.cpu += to.cpu - from.cpu
	c.allocB += to.allocB - from.allocB
	c.allocN += to.allocN - from.allocN
}

// readRate is reads per second of the read phase, less the time the
// benchmark spent checking answers.
func (r *runner) readRate() float64 {
	return float64(len(r.reads.lat)) / (r.reads.dur - r.reads.m.own.wall).Seconds()
}

func perRead(res obs.Resources, n int) string {
	f := func(x uint64) float64 { return float64(x) / float64(n) }
	return fmt.Sprintf("pages %.1f, atoms %.1f, chain steps %.1f, archive blocks %.1f", f(res.Pages), f(res.Atoms), f(res.ChainSteps), f(res.Arc))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile returns the nearest-rank q-quantile of xs (0 when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(q*float64(len(s)) + 0.999999999)
	return s[max(0, min(len(s)-1, i-1))]
}

func logf(format string, args ...any) { fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...) }
