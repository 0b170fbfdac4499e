package main

// layerMetrics turns the traced run's spans and counters into the
// per-layer metrics. Span times and counts are per operation of the
// timed phase unless the name says per run or per campaign, and the
// wal and matrix layers are per warm matrix pass; a layer the workload
// does not reach reads 0.
func layerMetrics(tr *tracer, cover []string, lat []float64, refS float64) map[string]metric {
	ops := float64(len(lat))
	perOp := func(x float64) float64 {
		if ops == 0 {
			return 0
		}
		return x / ops
	}
	perEach := func(span, count string) float64 {
		if n := tr.counter(count); n > 0 {
			return tr.seconds(span) / n
		}
		return 0
	}
	// perPass divides by the traced warm matrix passes: the timed
	// operations of matrix-rerun, the between-round probes of service.
	perPass := func(x float64) float64 {
		if n := tr.counter("matrix.passes"); n > 0 {
			return x / n
		}
		return 0
	}
	m := map[string]metric{"host.ref_s": {refS, "s"}}
	for _, s := range []string{
		"platform.run", "core.observe", "core.finalize", "stats.iid", "stats.qgate", "evt.fit",
		"mbpta.fingerprint", "pwcetd.submit", "pwcetd.wait", "pwcetd.report",
	} {
		m[s+"_s"] = metric{perOp(tr.seconds(s)), "s"}
	}
	for _, s := range []string{"wal.recover", "wal.barrier", "matrix.lookup"} {
		m[s+"_s"] = metric{perPass(tr.seconds(s)), "s"}
	}
	for _, c := range []string{
		"platform.runs", "isa.replay_runs",
		"isa.instructions", "cpu.cycles", "cache.il1_misses", "cache.dl1_misses",
		"tlb.itlb_misses", "tlb.dtlb_misses", "bus.transactions", "bus.wait_cycles",
		"core.batches", "fabric.leases", "pwcetd.polls",
	} {
		m[c] = metric{perOp(tr.counter(c)), "count"}
	}
	for _, c := range []string{"wal.fsyncs", "wal.records", "matrix.hits", "matrix.simulated_runs"} {
		m[c] = metric{perPass(tr.counter(c)), "count"}
	}
	mips := 0.0
	if s := tr.seconds("platform.run"); s > 0 {
		mips = tr.counter("isa.instructions") / s / 1e6
	}
	m["platform.minstr_per_s"] = metric{mips, "Minstr/s"}
	for _, s := range []string{"multicore.variant_run", "multicore.stable_run", "multicore.first_run"} {
		m[s+"_s"] = metric{perEach(s, s+"s"), "s"}
	}
	for _, s := range []string{"fabric.pool_campaign", "fabric.local_campaign", "pwcetd.fault_campaign"} {
		m[s+"_s"] = metric{perEach(s, s+"s"), "s"}
	}
	busy := 0.0
	for _, l := range lat {
		busy += l
	}
	covered := 0.0
	for _, s := range cover {
		covered += tr.seconds(s)
	}
	m["bench.unattributed_s"] = metric{perOp(busy - covered), "s"}
	return m
}
