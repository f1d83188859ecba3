package experiments

import (
	"fmt"
	"sync"

	"clip/internal/runner"
	"clip/internal/sim"
	"clip/internal/stats"
	"clip/internal/workload"
)

// Figures are declarations. A figure function only declares tables: the
// batches of simulations each cell reads and how the cell reduces them.
// report executes a declaration: it submits every batch to one engine, waits
// once, then fills tables, series and headline values in declaration order.
// Completion order never reaches a report, so Workers=1 and Workers=N render
// byte-identical reports. sweep and perMix build the two common table shapes.

// A batch declares simulations: every arm on every mix at one paper channel
// count. report submits a batch once, however many cells read it.
type batch struct {
	cores int // simulated cores; 0 keeps the scale's
	ch    int // paper channel count
	mixes []workload.Mix
	arms  []workload.Variant
	norm  bool // also run each mix's no-prefetch baseline: fills run.ws and run.base

	out [][]run // out[mix][arm]; set when the batch is submitted
}

// A run is one simulation's outcome. Results are shared through the run
// cache and are read-only.
type run struct {
	ws        float64     // normalized weighted speedup (norm batches only)
	res, base *sim.Result // base: the mix's no-prefetch baseline (norm batches only)
}

// A cell is one reported number: a reduction of its batch's runs.
type cell struct {
	key string // Report.Values key; "" records none
	b   *batch
	of  func(out [][]run) float64
}

// A table declares one stats.Table. A row holds label values, printed as
// they are, and cells.
type table struct {
	title   string
	headers []string
	rows    [][]any
	// series also plots each row as a Series named by its first label, one
	// point per cell under the cell's column header.
	series bool
}

// report executes a figure declaration at a scale.
func report(sc Scale, name, about string, tables ...table) (*Report, error) {
	e := newEngine(sc)
	for _, t := range tables {
		for _, row := range t.rows {
			for _, x := range row {
				if c, ok := x.(cell); ok && c.b.out == nil {
					e.submit(c.b)
				}
			}
		}
	}
	if err := e.wait(); err != nil {
		return nil, err
	}
	rep := newReport(name, about)
	for _, t := range tables {
		tb := &stats.Table{Title: t.title, Headers: t.headers}
		for _, row := range t.rows {
			var ser *stats.Series
			if t.series {
				ser = &stats.Series{Name: fmt.Sprint(row[0])}
				rep.Series = append(rep.Series, ser)
			}
			vals := make([]any, len(row))
			for i, x := range row {
				c, ok := x.(cell)
				if !ok {
					vals[i] = x
					continue
				}
				v := c.of(c.b.out)
				vals[i] = v
				if c.key != "" {
					rep.Values[c.key] = v
				}
				if ser != nil {
					ser.Add(t.headers[i], v)
				}
			}
			tb.AddRow(vals...)
		}
		rep.Tables = append(rep.Tables, tb)
	}
	return rep, nil
}

// meanOf is the reduction averaging f over a batch's mixes in mix order; f
// sees one mix's runs in arm order.
func meanOf(f func([]run) float64) func([][]run) float64 {
	return func(out [][]run) float64 {
		vs := make([]float64, len(out))
		for i, rs := range out {
			vs[i] = f(rs)
		}
		return stats.Mean(vs)
	}
}

// wsOf reads arm a's normalized weighted speedup.
func wsOf(a int) func([]run) float64 {
	return func(rs []run) float64 { return rs[a].ws }
}

// resOf reads f of arm a's result.
func resOf(a int, f func(*sim.Result) float64) func([]run) float64 {
	return func(rs []run) float64 { return f(rs[a].res) }
}

// meanWS averages arm 0's normalized weighted speedup over the mixes.
var meanWS = meanOf(wsOf(0))

// wsCell is the mean normalized weighted speedup of v on mixes at paper
// channel count ch.
func wsCell(key string, ch int, mixes []workload.Mix, v workload.Variant) cell {
	b := &batch{ch: ch, mixes: mixes, arms: []workload.Variant{v}, norm: true}
	return cell{key, b, meanWS}
}

// sweep declares a variants × channel-counts table: a row per variant, and
// per channel count of the scale a wsCell keyed prefix+name@<N>ch.
func sweep(sc Scale, title, head, prefix string, mixes []workload.Mix, vs ...workload.Variant) table {
	t := table{title: title, headers: append([]string{head}, chLabels(sc.Channels)...)}
	for _, v := range vs {
		row := []any{v.Name}
		for _, ch := range sc.Channels {
			row = append(row, wsCell(prefix+v.Name+"@"+chLabel(ch), ch, mixes, v))
		}
		t.rows = append(t.rows, row)
	}
	return t
}

// A column of a perMix table; of reduces one mix's runs.
type column struct {
	head    string
	mixKey  string // per-mix Values key: mix name + "." + mixKey; "" records none
	meanKey string // Values key of the MEAN row's cell; "" records none
	of      func([]run) float64
}

// perMix declares a table over one batch: a row per mix, then a MEAN row
// averaging each column over the mixes.
func perMix(title string, b *batch, cols ...column) table {
	t := table{title: title, headers: []string{"mix"}}
	for i, m := range b.mixes {
		row := []any{m.Name}
		for _, c := range cols {
			key := ""
			if c.mixKey != "" {
				key = m.Name + "." + c.mixKey
			}
			row = append(row, cell{key, b, func(out [][]run) float64 { return c.of(out[i]) }})
		}
		t.rows = append(t.rows, row)
	}
	mean := []any{"MEAN"}
	for _, c := range cols {
		t.headers = append(t.headers, c.head)
		mean = append(mean, cell{c.meanKey, b, meanOf(c.of)})
	}
	t.rows = append(t.rows, mean)
	return t
}

// engine runs one figure's batches on a bounded worker pool. Runners (and
// with them the alone-IPC and per-mix baseline memos) are shared by every
// batch at the same core and paper channel count; raw runs also dedup across
// figures through the process-wide run cache of the scale's protocol
// (internal/runner).
type engine struct {
	sc   Scale
	pool *runner.Pool
	// runners holds one Runner per (cores, paper channels). Only submit
	// touches it, on the caller's goroutine, so it needs no lock.
	runners map[[2]int]*workload.Runner

	mu  sync.Mutex
	err error // the first failure among the jobs
}

func newEngine(sc Scale) *engine {
	return &engine{sc: sc, pool: runner.NewPool(sc.Workers), runners: map[[2]int]*workload.Runner{}}
}

// submit queues one job per (mix, arm) of b. Each job fills its own slot of
// b.out; nothing may read b.out before wait returns nil.
func (e *engine) submit(b *batch) {
	sc := e.sc
	if b.cores != 0 {
		sc.Cores = b.cores
	}
	key := [2]int{sc.Cores, b.ch}
	r := e.runners[key]
	if r == nil {
		r = workload.NewRunner(template(sc, b.ch))
		if sc.WarmFork {
			r.Cache = runner.SharedWarmFork()
		}
		e.runners[key] = r
	}
	b.out = make([][]run, len(b.mixes))
	for i, m := range b.mixes {
		b.out[i] = make([]run, len(b.arms))
		for j, v := range b.arms {
			out := &b.out[i][j]
			e.pool.Go(func() {
				var err error
				if b.norm {
					out.ws, out.res, out.base, err = r.NormalizedWS(m, v)
				} else {
					out.res, _, err = r.RunMix(m, v)
				}
				if err != nil {
					e.mu.Lock()
					if e.err == nil {
						e.err = err
					}
					e.mu.Unlock()
				}
			})
		}
	}
}

// wait blocks until every submitted job finished and returns the first
// error, if any.
func (e *engine) wait() error {
	e.pool.Wait()
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.err
}
