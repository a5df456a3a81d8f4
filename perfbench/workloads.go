package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"strconv"
	"strings"
	"sync"

	"frieda/internal/catalog"
	"frieda/internal/core"
	"frieda/internal/protocol"
	"frieda/internal/strategy"
	"frieda/internal/workload/blast"
	"frieda/internal/workload/imagecmp"
	"frieda/internal/workload/imggen"
	"frieda/internal/workload/seqgen"
)

// Workload sizes. They are fixed so every seed measures the same amount of
// work; the seed only changes the contents.
const (
	microTasks    = 8192 // one 8-byte file each
	microBytes    = 8
	microPrefetch = 4

	alsFrames = 200 // 1024×1024 8-bit frames, ~1 MiB each; 100 pairs

	blastQueries  = 128
	blastDBSeqs   = 80000 // ~4 MiB of FASTA
	blastMinLen   = 24    // query and database lengths; a query's cost
	blastMaxLen   = 56    // grows faster than its length
	blastHomologs = 51    // queries with a planted relative (seqgen's 40%)
	blastMutation = 0.25
	blastDB       = "nr.fasta"
	blastHitsTail = ".hits"
)

// newWorkload finishes a workload from its source: plans the partition the
// master will use and maps every file to its group.
func newWorkload(name string, src *catalog.MemSource, strat strategy.Config, common ...string) (*rtWorkload, error) {
	strat.CommonFiles = common
	if err := strat.Validate(); err != nil {
		return nil, err
	}
	all, err := src.Catalog()
	if err != nil {
		return nil, err
	}
	isCommon := make(map[string]bool)
	for _, c := range common {
		isCommon[c] = true
	}
	inputs := catalog.New()
	for _, f := range all.Files() {
		if !isCommon[f.Name] {
			inputs.MustAdd(f)
		}
	}
	gen, err := strat.Generator()
	if err != nil {
		return nil, err
	}
	groups, err := gen.Generate(inputs)
	if err != nil {
		return nil, err
	}
	fileGroup := make(map[string]int)
	for _, g := range groups {
		for _, f := range g.Files {
			fileGroup[f.Name] = g.Index
		}
	}
	return &rtWorkload{
		name: name, strat: strat, source: src, inputs: inputs,
		groups: len(groups), fileGroup: fileGroup,
	}, nil
}

// runMicrotasks: thousands of one-file tasks with 8-byte inputs whose
// program only echoes its input, over loopback TCP. Every task costs one
// dispatch decision, one file stream, one EXECUTE and one TASK_STATUS, and
// execution costs nothing: the control-plane, codec and per-file-overhead
// workload.
func runMicrotasks(o options) (*result, error) {
	rng := rand.New(rand.NewSource(o.seed))
	src := catalog.NewMemSource()
	want := make(map[string]string, microTasks)
	for i := 0; i < microTasks; i++ {
		data := make([]byte, microBytes)
		rng.Read(data)
		name := fmt.Sprintf("t%05d", i)
		src.Put(name, data)
		want[name] = string(data)
	}
	strat := strategy.RealTimeRemote
	strat.Prefetch = microPrefetch
	w, err := newWorkload("rt-microtasks", src, strat)
	if err != nil {
		return nil, err
	}
	w.tcp = true
	byGroup := make([]string, w.groups)
	for name, g := range w.fileGroup {
		byGroup[g] = want[name]
	}
	w.newProgram = func() core.Program {
		return core.FuncProgram(func(_ context.Context, task core.Task) (string, error) {
			return readInput(task, task.Inputs[0])
		})
	}
	w.verify = func(res protocol.TaskResult, _ *core.MemStore) string {
		if !res.OK {
			return inputCause(res.Error)
		}
		if res.Output != byGroup[res.GroupIndex] {
			return "output_mismatch"
		}
		return ""
	}
	return runRT(w, o)
}

// runALSStage: ALS-like frames of ~1 MiB, compared pairwise-adjacent with
// the cheap global imagecmp.Compare over the mem transport. Bytes dominate
// and tasks number in the hundreds: streaming, chunk copies, Store.Append
// and source reads set the pace.
func runALSStage(o options) (*result, error) {
	frames := imggen.Series(imggen.Params{Seed: o.seed}, alsFrames)
	src := catalog.NewMemSource()
	for i, im := range frames {
		var buf bytes.Buffer
		if err := imagecmp.WritePGM(&buf, im); err != nil {
			return nil, err
		}
		src.Put(fmt.Sprintf("f%04d.pgm", i), buf.Bytes())
	}
	strat := strategy.RealTimeRemote
	strat.Grouping = "pairwise-adjacent"
	w, err := newWorkload("rt-als-stage", src, strat)
	if err != nil {
		return nil, err
	}
	// References: pair g compares frames 2g and 2g+1 (names sort in frame
	// order, and pairwise-adjacent pairs consecutive names).
	want := make([]string, w.groups)
	for g := range want {
		r, err := imagecmp.Compare(frames[2*g], frames[2*g+1])
		if err != nil {
			return nil, err
		}
		want[g] = formatCompare(r)
	}
	frames = nil
	w.newProgram = func() core.Program {
		return core.FuncProgram(func(_ context.Context, task core.Task) (string, error) {
			var ims [2]*imagecmp.Image
			for i, name := range task.Inputs {
				rc, err := task.Store.Open(name)
				if err != nil {
					return "", fmt.Errorf("input missing: %w", err)
				}
				im, err := imagecmp.ReadPGM(rc)
				rc.Close()
				if err != nil {
					return "", err
				}
				ims[i] = im
			}
			r, err := imagecmp.Compare(ims[0], ims[1])
			if err != nil {
				return "", err
			}
			return formatCompare(r), nil
		})
	}
	w.verify = func(res protocol.TaskResult, _ *core.MemStore) string {
		if !res.OK {
			return inputCause(res.Error)
		}
		if res.Output != want[res.GroupIndex] {
			return "output_mismatch"
		}
		return ""
	}
	return runRT(w, o)
}

// formatCompare renders every field of a comparison at full precision.
func formatCompare(r imagecmp.Result) string {
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	return f(r.MSE) + " " + f(r.PSNR) + " " + f(r.NCC) + " " + f(r.SSIM) + " " + f(r.HistIntersection)
}

// runBLASTCommon: mini-BLAST queries against a ~4 MiB database declared in
// CommonFiles, each task's hit table returned through OutputSink. Execution
// dominates and per-query cost varies; staging the database lands in
// setup, and outputs use the worker-to-master direction of the streaming
// layer.
func runBLASTCommon(o options) (*result, error) {
	wl := blastInputs(o.seed)
	src := catalog.NewMemSource()
	var dbBuf bytes.Buffer
	if err := blast.WriteFASTA(&dbBuf, wl.Database); err != nil {
		return nil, err
	}
	dbBytes := int64(dbBuf.Len())
	src.Put(blastDB, dbBuf.Bytes())
	for i, q := range wl.Queries {
		var buf bytes.Buffer
		if err := blast.WriteFASTA(&buf, []blast.Sequence{q}); err != nil {
			return nil, err
		}
		src.Put(fmt.Sprintf("q%04d.fa", i), buf.Bytes())
	}
	w, err := newWorkload("rt-blast-common", src, strategy.RealTimeRemote, blastDB)
	if err != nil {
		return nil, err
	}
	w.collect = true

	// References: every query's hit table against the full database,
	// computed on two goroutines (the box's cores) before timing.
	db, err := blast.BuildDB(wl.Database, blast.DefaultK)
	if err != nil {
		return nil, err
	}
	want := make([]string, w.groups)
	outName := make([]string, w.groups)
	query := make([]blast.Sequence, w.groups)
	for g := range outName {
		name := fmt.Sprintf("q%04d.fa", g) // single grouping: group g is query g
		if w.fileGroup[name] != g {
			return nil, fmt.Errorf("query %s planned as group %d", name, w.fileGroup[name])
		}
		query[g] = wl.Queries[g]
		outName[g] = name + blastHitsTail
		w.fileGroup[outName[g]] = g
	}
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for part := 0; part < 2; part++ {
		wg.Add(1)
		go func(part int) {
			defer wg.Done()
			for g := part; g < w.groups; g += 2 {
				hits, err := blast.Search(db, query[g], blast.DefaultParams())
				if err != nil {
					errs[part] = err
					return
				}
				want[g] = formatHits(hits)
			}
		}(part)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	db = nil

	w.newProgram = func() core.Program { return &blastProgram{} }
	w.verify = func(res protocol.TaskResult, sink *core.MemStore) string {
		seen, ok := dbSeen(res.Output)
		switch {
		case ok && seen >= 0 && seen < dbBytes:
			return "partial_common_file"
		case !res.OK:
			return inputCause(res.Error)
		case !ok || seen != dbBytes:
			return "output_mismatch"
		}
		got, ok := sink.Bytes(outName[res.GroupIndex])
		if !ok || string(got) != want[res.GroupIndex] {
			return "output_mismatch"
		}
		return ""
	}
	return runRT(w, o)
}

// blastInputs generates the queries and the database like
// seqgen.NewWorkload, except that the query lengths are spaced evenly over
// [blastMinLen, blastMaxLen] and the homolog count is fixed: every seed
// then carries about the same work, while the seed decides each query's
// length, residues and relatives.
func blastInputs(seed int64) seqgen.Workload {
	rng := rand.New(rand.NewSource(seed))
	lengths := make([]int, blastQueries)
	for i := range lengths {
		lengths[i] = blastMinLen + i*(blastMaxLen-blastMinLen)/(blastQueries-1)
	}
	rng.Shuffle(len(lengths), func(i, j int) { lengths[i], lengths[j] = lengths[j], lengths[i] })
	var wl seqgen.Workload
	for i, n := range lengths {
		wl.Queries = append(wl.Queries, blast.Sequence{ID: fmt.Sprintf("query%06d", i), Residues: seqgen.Random(rng, n)})
	}
	wl.Database = seqgen.Generate(rng, blastDBSeqs, blastMinLen, blastMaxLen)
	for i := range wl.Database {
		wl.Database[i].ID = fmt.Sprintf("db%06d", i)
	}
	// Plant a mutated copy of each related query over a distinct database
	// record.
	slots := rng.Perm(len(wl.Database))
	for _, q := range rng.Perm(blastQueries)[:blastHomologs] {
		slot := slots[q]
		wl.Database[slot] = blast.Sequence{
			ID:          fmt.Sprintf("db%06d", slot),
			Description: "homolog-of " + wl.Queries[q].ID,
			Residues:    seqgen.Mutate(rng, wl.Queries[q].Residues, blastMutation),
		}
	}
	return wl
}

// blastProgram is one worker's search program. It reads the database the
// task sees, indexes it once per distinct size, searches the task's query
// and registers the hit table as the task's output. The summary reports
// the database bytes the task saw.
type blastProgram struct {
	mu   sync.Mutex
	size int64
	db   *blast.DB
}

func (b *blastProgram) Run(_ context.Context, task core.Task) (string, error) {
	db, seen, err := b.database(task.Store)
	summary := fmt.Sprintf("db_bytes=%d", seen)
	if err != nil {
		return summary, err
	}
	rc, err := task.Store.Open(task.Inputs[0])
	if err != nil {
		return summary, fmt.Errorf("input missing: %w", err)
	}
	queries, err := blast.ParseFASTA(rc)
	rc.Close()
	if err != nil {
		return summary, err
	}
	if len(queries) != 1 {
		return summary, fmt.Errorf("query file %s holds %d sequences", task.Inputs[0], len(queries))
	}
	hits, err := blast.Search(db, queries[0], blast.DefaultParams())
	if err != nil {
		return summary, err
	}
	if err := task.AddOutput(task.Inputs[0]+blastHitsTail, strings.NewReader(formatHits(hits))); err != nil {
		return summary, err
	}
	return fmt.Sprintf("%s hits=%d", summary, len(hits)), nil
}

// database returns the index of the database bytes resident right now and
// their count; -1 when the database is not in the store at all.
func (b *blastProgram) database(store core.Store) (*blast.DB, int64, error) {
	n := store.Size(blastDB)
	if n < 0 {
		return nil, -1, fmt.Errorf("common file missing: %q not in store", blastDB)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.db != nil && n == b.size {
		return b.db, n, nil
	}
	// Parse exactly the n bytes measured: chunks only ever extend the
	// file, so they are the same bytes.
	rc, err := store.Open(blastDB)
	if err != nil {
		return nil, n, err
	}
	db, err := blast.LoadDB(io.LimitReader(rc, n), blast.DefaultK)
	rc.Close()
	if err != nil {
		return nil, n, err
	}
	b.db, b.size = db, n
	return db, n, nil
}

// dbSeen parses the db_bytes field of a BLAST task summary.
func dbSeen(summary string) (int64, bool) {
	field, _, _ := strings.Cut(summary, " ")
	v, ok := strings.CutPrefix(field, "db_bytes=")
	if !ok {
		return 0, false
	}
	n, err := strconv.ParseInt(v, 10, 64)
	return n, err == nil
}

// formatHits renders a hit table, one subject per line.
func formatHits(hits []blast.Hit) string {
	var b strings.Builder
	for _, h := range hits {
		fmt.Fprintf(&b, "%s\t%d\t%d\n", h.SubjectID, h.SubjectIndex, h.Score)
	}
	return b.String()
}

// readInput returns a stored input's contents.
func readInput(task core.Task, name string) (string, error) {
	rc, err := task.Store.Open(name)
	if err != nil {
		return "", fmt.Errorf("input missing: %w", err)
	}
	defer rc.Close()
	data, err := io.ReadAll(rc)
	return string(data), err
}

// inputCause classifies a failure the runtime reported.
func inputCause(errText string) string {
	switch {
	case strings.Contains(errText, "common file missing"):
		return "missing_common_file"
	case strings.Contains(errText, "input missing"):
		return "missing_input"
	case strings.Contains(errText, "worker lost"):
		return "worker_lost"
	}
	return "runtime_error"
}
