package main

// endToEnd returns the metrics a user of the system sees, from an
// untraced run. Each timing is the median over the phase's windows,
// divided by the phase's calibration scale (calib.go).
func (r *runner) endToEnd(f *fixture) map[string]metric {
	rd, wr := &r.reads, &r.writes
	over := func(ws []win, g func(w win) float64) float64 {
		xs := make([]float64, 0, len(ws))
		for _, w := range ws {
			if w.n1 > w.n0 {
				xs = append(xs, g(w))
			}
		}
		return quantile(xs, 0.5)
	}
	rws := rd.m.windows()
	rs, rcs := rd.m.scale()
	cs, _ := wr.m.scale()
	setupScale, _ := scaleOf(r.setupK)
	n := float64(len(rd.lat))
	return map[string]metric{
		"read_ops_per_s":            {over(rws, func(w win) float64 { return float64(w.n1-w.n0) / w.wall.Seconds() }) * rs, "1/s"},
		"read_p50_ms":               {over(rws, func(w win) float64 { return quantile(rd.lat[w.n0:w.n1], 0.50) }) / rs, "ms"},
		"read_p90_ms":               {over(rws, func(w win) float64 { return quantile(rd.lat[w.n0:w.n1], 0.90) }) / rs, "ms"},
		"read_cpu_ms_per_op":        {over(rws, func(w win) float64 { return ms(w.cpu) / float64(w.n1-w.n0) }) / rcs, "ms"},
		"read_alloc_kib_per_op":     {float64(rd.after.allocB-rd.before.allocB-rd.m.own.allocB) / 1024 / n, "KiB"},
		"commit_p50_ms":             {over(wr.m.windows(), func(w win) float64 { return quantile(wr.lat[w.n0:w.n1], 0.50) }) / cs, "ms"},
		"space_bytes_per_user_byte": {float64(r.spaceB) / float64(r.userB), "ratio"},
		"setup_s":                   {quantile(r.setupS, 0.5) / setupScale, "s"},
	}
}

// layerMetrics returns the per-layer metrics of a traced run: counter and
// histogram deltas over the read phase (reads) or the writer (commits),
// the benchmark's own timings of calls into each layer, and self times
// from the spans.
func (r *runner) layerMetrics(f *fixture) map[string]metric {
	rd, wr := &r.reads, &r.writes
	nr, nc := float64(len(rd.lat)), float64(len(wr.lat))
	rc := func(name string) float64 { return float64(rd.after.c[name] - rd.before.c[name]) }
	wc := func(name string) float64 { return float64(wr.after.c[name] - wr.before.c[name]) }
	// fsync is measured where commits sync: point-read's durability step.
	sw := wr
	if len(r.durable.lat) > 0 {
		sw = &r.durable
	}
	rsum := func(name string) float64 { return float64(rd.after.h[name].Sum-rd.before.h[name].Sum) / 1e6 }
	rcount := func(name string) float64 { return float64(rd.after.h[name].Count - rd.before.h[name].Count) }
	self := r.tr.selfMS()
	var mol []float64
	for i, k := range rd.kinds {
		if k.molecule() {
			mol = append(mol, rd.lat[i])
		}
	}
	hits, misses := rc("pool.hits"), rc("pool.misses")
	return map[string]metric{
		"wire.overhead_ms":              {quantile(rd.wireMS, 0.5), "ms"},
		"server.queue_wait_ms":          {div(rsum("server.queue_wait_ns"), rcount("server.queue_wait_ns")), "ms"},
		"core.read_lock_wait_ms":        {div(self["Engine.QueryWith"], nr), "ms"},
		"core.begin_wait_ms":            {quantile(wr.begin, 0.5), "ms"},
		"query.parse_analyze_us":        {quantile(r.parseUS, 0.5), "us"},
		"query.exec_ms":                 {div(rsum("query.ns"), rcount("query.ns")), "ms"},
		"query.atoms_per_row":           {div(float64(rd.res.Atoms), float64(rd.rows)), "ratio"},
		"query.parallel_chunks_per_op":  {div(rc("query.parallel_chunks"), nr), "count/op"},
		"molecule.query_p50_ms":         {quantile(mol, 0.5), "ms"},
		"atom.fast_loads_per_op":        {div(rc("atom.fast_loads"), nr), "count/op"},
		"atom.full_loads_per_op":        {div(rc("atom.full_loads"), nr), "count/op"},
		"atom.chain_steps_per_op":       {div(float64(rd.res.ChainSteps), nr), "count/op"},
		"atom.segment_reads_per_op":     {div(rc("atom.segment_reads"), nr), "count/op"},
		"storage.pages_per_op":          {div(float64(rd.res.Pages), nr), "count/op"},
		"storage.forward_hops_per_op":   {div(rc("heap.forward_hops"), nr), "count/op"},
		"storage.pool_hit_ratio":        {div(hits, hits+misses), "ratio"},
		"storage.pool_read_ms_per_op":   {div(rsum("pool.read_ns"), nr), "ms"},
		"storage.archive_blocks_per_op": {div(rc("archive.read_blocks"), nr), "count/op"},
		"txn.commit_ms":                 {quantile(wr.commit, 0.5), "ms"},
		"wal.fsync_ms": {div(float64(sw.after.h["wal.fsync_ns"].Sum-sw.before.h["wal.fsync_ns"].Sum)/1e6,
			float64(sw.after.h["wal.fsync_ns"].Count-sw.before.h["wal.fsync_ns"].Count)), "ms"},
		"wal.fsyncs_per_commit":        {div(float64(sw.after.c["wal.fsyncs"]-sw.before.c["wal.fsyncs"]), float64(len(sw.lat))), "count/op"},
		"wal.bytes_per_commit":         {div(wc("wal.append_bytes"), nc), "B"},
		"wal.recovery_s":               {r.recover, "s"},
		"gc.cpu_ms_per_op":             {div((rd.after.gcCPU-rd.before.gcCPU)*1000, nr), "ms"},
		"runtime.alloc_objects_per_op": {div(float64(rd.after.allocN-rd.before.allocN-rd.m.own.allocN), nr), "count/op"},
		"setup.load_s":                 {quantile(r.loadS, 0.5), "s"},
		"setup.archive_s":              {quantile(r.archS, 0.5), "s"},
		"self.read.bench_ms":           {div(self["read"], nr), "ms"},
		"self.read.wire_ms":            {div(self["client.Query"], nr), "ms"},
		"self.read.server_ms":          {div(self["server"], nr), "ms"},
		"self.write.bench_ms":          {div(self["commit"], nc), "ms"},
		"self.write.begin_ms":          {div(self["Engine.Begin"], nc), "ms"},
		"self.write.set_ms":            {div(self["Txn.Set"], nc), "ms"},
		"self.write.commit_ms":         {div(self["Txn.Commit"], nc), "ms"},
	}
}

// div is a/b, or 0 where the layer did no work (b == 0).
func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
