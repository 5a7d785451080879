package main

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"tcodm/internal/core"
	"tcodm/internal/server"
	"tcodm/internal/temporal"
	"tcodm/internal/value"
	"tcodm/internal/workload"
	"tcodm/pkg/client"
)

// loadBatch is the number of operations per load transaction (tcoload's
// default).
const loadBatch = 128

// fixture is one set-up store: the serving engine, its shadow model and,
// for wire workloads, a loopback server and client.
type fixture struct {
	dir, path string
	db        *core.Engine
	m         *model
	tts       ttRange
	srv       *server.Server
	served    chan error
	cl        *client.Client

	loadS, archiveS, setupS float64
}

// loader applies the workload in batches of loadBatch operations and
// records the transaction time that applied each one.
type loader struct {
	db  *core.Engine
	tx  *core.Txn
	n   int
	tts []temporal.Instant
}

func (l *loader) txn() (*core.Txn, error) {
	if l.tx == nil {
		tx, err := l.db.Begin()
		if err != nil {
			return nil, err
		}
		l.tx = tx
	}
	l.tts = append(l.tts, l.tx.TT())
	return l.tx, nil
}

func (l *loader) step() error {
	if l.n++; l.n%loadBatch == 0 {
		return l.flush()
	}
	return nil
}

func (l *loader) flush() error {
	if l.tx == nil {
		return nil
	}
	err := l.tx.Commit()
	l.tx = nil
	return err
}

func (l *loader) Insert(typ string, vals map[string]value.V, from temporal.Instant) (value.ID, error) {
	tx, err := l.txn()
	if err != nil {
		return 0, err
	}
	id, err := tx.Insert(typ, vals, from)
	if err != nil {
		return 0, err
	}
	return id, l.step()
}

func (l *loader) Update(id value.ID, attr string, v value.V, from temporal.Instant) error {
	tx, err := l.txn()
	if err != nil {
		return err
	}
	if err := tx.Set(id, attr, v, from); err != nil {
		return err
	}
	return l.step()
}

func (l *loader) AddRef(value.ID, string, value.ID, temporal.Instant) error {
	return fmt.Errorf("loader: the personnel workload adds no set members")
}

func (l *loader) RemoveRef(value.ID, string, value.ID, temporal.Instant) error {
	return fmt.Errorf("loader: the personnel workload removes no set members")
}

func (l *loader) Delete(value.ID, temporal.Instant) error {
	return fmt.Errorf("loader: the personnel workload deletes nothing")
}

// load builds the workload's store at path the way tcoload does: no
// per-commit fsync (unless sync), the clock advanced past the valid-time
// horizon. It returns the still-open engine, the shadow model and the
// transaction times of the update commits.
func (r *runner) load(path string, sync bool) (*core.Engine, *model, ttRange, error) {
	p := r.w.params
	p.Seed = r.seed
	ops := workload.Personnel(p)
	db, err := r.open(core.Options{Path: path, SyncOnCommit: sync})
	if err != nil {
		return nil, nil, ttRange{}, err
	}
	fail := func(err error) (*core.Engine, *model, ttRange, error) {
		db.Close()
		return nil, nil, ttRange{}, fmt.Errorf("load: %w", err)
	}
	sch, err := workload.PersonnelSchema()
	if err != nil {
		return fail(err)
	}
	for _, n := range sch.AtomTypeNames() {
		at, _ := sch.AtomType(n)
		if err := db.DefineAtomType(*at); err != nil {
			return fail(err)
		}
	}
	for _, n := range sch.MoleculeTypeNames() {
		mt, _ := sch.MoleculeType(n)
		if err := db.DefineMoleculeType(*mt); err != nil {
			return fail(err)
		}
	}
	ld := &loader{db: db}
	ids, err := workload.Apply(ops, ld)
	if err == nil {
		err = ld.flush()
	}
	if err != nil {
		return fail(err)
	}
	var horizon temporal.Instant
	for _, op := range ops {
		horizon = max(horizon, op.From+1)
	}
	db.AdvanceClock(horizon)
	m, err := buildModel(ops, ld.tts, ids, horizon)
	if err != nil {
		return fail(err)
	}
	inserts := p.Depts + p.Emps
	// The archive watermark sits at the commit that applied the middle update.
	tts := ttRange{first: ld.tts[inserts], watermark: ld.tts[inserts+(len(ops)-inserts)/2], last: ld.tts[len(ld.tts)-1]}
	return db, m, tts, nil
}

// setup makes one fixture, from an empty directory to the moment the
// first timed operation can start: load, reopen in the serving
// configuration, start the loopback server and client, warm up, collect.
func (r *runner) setup(i int) (*fixture, error) {
	start := time.Now()
	f := &fixture{dir: filepath.Join(r.runDir, fmt.Sprintf("fixture-%d", i))}
	f.path = filepath.Join(f.dir, "personnel.tdb")
	if err := os.MkdirAll(f.dir, 0o755); err != nil {
		return nil, err
	}
	db, m, tts, err := r.load(f.path, false)
	if err != nil {
		return nil, err
	}
	f.m, f.tts = m, tts
	f.loadS = time.Since(start).Seconds()
	if r.w.archive {
		t0 := time.Now()
		_, err := db.Archive(tts.watermark)
		r.tr.add(r.tr.op(), 0, "Engine.Archive", t0, time.Since(t0))
		if err != nil {
			db.Close()
			return nil, fmt.Errorf("archive below %d: %w", tts.watermark, err)
		}
		f.archiveS = time.Since(t0).Seconds()
	}
	if err := db.Close(); err != nil {
		return nil, err
	}
	f.db, err = r.open(core.Options{Path: f.path, PoolPages: r.w.pool})
	if err != nil {
		return nil, err
	}
	if r.w.wire {
		if err := f.serve(); err != nil {
			f.close()
			return nil, err
		}
	}
	r.queries = r.w.round(f.m, rand.New(rand.NewSource(r.seed)), f.tts)
	for _, q := range r.queries[:r.w.warmup] {
		rows, _, err := r.exec(f, q.text)
		if err == nil {
			err = q.check(f.m, rows)
		}
		if err != nil {
			f.close()
			return nil, fmt.Errorf("warm-up %s: %w", q.kind, err)
		}
	}
	// Collect set-up's garbage so the timed phase does not pay for it.
	runtime.GC()
	f.setupS = time.Since(start).Seconds()
	if i == 0 {
		st := f.db.Stats()
		logf("fixture: %d employees, %d departments, %d data pages, pool %d pages (0 = default), archive %d bytes, watermark tt %d, horizon %d",
			len(f.m.emps), len(f.m.deptNames), st.DevicePags, r.w.pool, st.ArchiveBytes, f.tts.watermark, f.m.horizon)
	}
	return f, nil
}

// serve starts a loopback server over the fixture's engine and a client
// that neither retries nor trips a breaker: every error reaches the
// benchmark and counts as a failed operation.
func (f *fixture) serve() error {
	srv, err := server.New(server.Config{Engine: f.db, Banner: "perfbench"})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	f.srv, f.served = srv, make(chan error, 1)
	go func() { f.served <- srv.Serve(ln) }()
	f.cl, err = client.New(client.Config{Addr: ln.Addr().String(), Banner: "perfbench",
		PoolSize: 1, QueryRetries: -1, DialRetries: -1, BreakerFailures: -1})
	return err
}

// stopServing closes the client and drains the server, waiting for it.
func (f *fixture) stopServing() error {
	if f.srv == nil {
		return nil
	}
	f.cl.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := f.srv.Shutdown(ctx)
	if serr := <-f.served; err == nil {
		err = serr
	}
	f.srv = nil
	return err
}

// close stops serving, closes the engine and removes the fixture's files.
func (f *fixture) close() error {
	err := f.stopServing()
	if f.db != nil {
		if cerr := f.db.Close(); err == nil {
			err = cerr
		}
	}
	if rerr := os.RemoveAll(f.dir); err == nil {
		err = rerr
	}
	return err
}

// space sums the store's files: data, write-ahead log and cold archive.
func (f *fixture) space() (int64, error) {
	var total int64
	for _, p := range []string{f.path, f.path + ".wal", f.path + ".arc"} {
		st, err := os.Stat(p)
		if os.IsNotExist(err) {
			continue
		}
		if err != nil {
			return 0, err
		}
		total += st.Size()
	}
	return total, nil
}
