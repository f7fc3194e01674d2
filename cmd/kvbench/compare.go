package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
)

// benchmarkDef is BENCHMARK.json: the workloads and the metrics, with
// the regression bound of each end-to-end metric.
type benchmarkDef struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []boundDef `json:"end_to_end"`
	PerLayer []layerDef `json:"per_layer"`
}

type boundDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type layerDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

func loadBenchmark(path string) (*benchmarkDef, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var def benchmarkDef
	if err := json.Unmarshal(b, &def); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &def, nil
}

// loadRuns reads the -out files matching pattern, in name order, and
// returns each workload's metric values in that order. A run marked
// invalid is refused.
func loadRuns(pattern string) (map[string]map[string][]float64, int, error) {
	paths, err := filepath.Glob(pattern)
	if err != nil {
		return nil, 0, err
	}
	if len(paths) == 0 {
		return nil, 0, fmt.Errorf("no run files match %s", pattern)
	}
	sort.Strings(paths)
	vals := map[string]map[string][]float64{}
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, 0, err
		}
		var rf runFile
		if err := json.Unmarshal(b, &rf); err != nil {
			return nil, 0, fmt.Errorf("%s: %w", p, err)
		}
		for _, r := range rf.Results {
			if !r.Valid {
				return nil, 0, fmt.Errorf("%s: %s ran more client connections than CPUs; refusing it", p, r.Workload)
			}
			if !r.Correct {
				return nil, 0, fmt.Errorf("%s: %s failed verification; refusing it", p, r.Workload)
			}
			if vals[r.Workload] == nil {
				vals[r.Workload] = map[string][]float64{}
			}
			for name, m := range r.Metrics {
				vals[r.Workload][name] = append(vals[r.Workload][name], m.Value)
			}
		}
	}
	return vals, len(paths), nil
}

// quartiles returns the three quartiles the way Python's
// statistics.quantiles(data, n=4) computes them (the exclusive method).
func quartiles(data []float64) (q1, q2, q3 float64) {
	d := slices.Clone(data)
	slices.Sort(d)
	n := len(d)
	if n == 1 {
		return d[0], d[0], d[0]
	}
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := i * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		q[i-1] = (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	return q[0], q[1], q[2]
}

// verdict applies the comparison rule to one workload and metric. base
// and head hold one value per run, paired by position.
//
//   - improved: head wins at least nine pairs in ten (ties count for
//     neither) and the medians differ by more than base's interquartile
//     distance;
//   - unresolved: either side's interquartile spread, as a share of its
//     median, exceeds the bound, unless every head run beats every base
//     run;
//   - regressed: head's median is worse than base's by more than the
//     bound;
//   - unchanged: otherwise.
func verdict(base, head []float64, lowerBetter bool, bound float64) string {
	better := betterThan(lowerBetter)
	b1, mb, b3 := quartiles(base)
	h1, mh, h3 := quartiles(head)
	won, pairs := wins(base, head, better)
	if better(mh, mb) && won*10 >= pairs*9 && math.Abs(mh-mb) > b3-b1 {
		return "improved"
	}
	spread := max((b3-b1)/math.Abs(mb), (h3-h1)/math.Abs(mh))
	allBetter := true
	for _, h := range head {
		for _, b := range base {
			allBetter = allBetter && better(h, b)
		}
	}
	if spread > bound && !allBetter {
		return "unresolved"
	}
	worse := mb - mh
	if lowerBetter {
		worse = mh - mb
	}
	if worse > bound*math.Abs(mb) {
		return "regressed"
	}
	return "unchanged"
}

func betterThan(lowerBetter bool) func(h, b float64) bool {
	if lowerBetter {
		return func(h, b float64) bool { return h < b }
	}
	return func(h, b float64) bool { return h > b }
}

// wins counts the pairs in which head is strictly better than base.
func wins(base, head []float64, better func(h, b float64) bool) (won, pairs int) {
	pairs = min(len(base), len(head))
	for i := range pairs {
		if better(head[i], base[i]) {
			won++
		}
	}
	return won, pairs
}

// runCompare prints medians, quartiles and a verdict for every workload
// and end-to-end metric. It exits 1 when any metric regressed and 2 on
// an error.
func runCompare(w io.Writer, benchPath, baseGlob, headGlob string) int {
	def, err := loadBenchmark(benchPath)
	if err == nil {
		var base, head map[string]map[string][]float64
		var nb, nh int
		if base, nb, err = loadRuns(baseGlob); err == nil {
			if head, nh, err = loadRuns(headGlob); err == nil {
				fmt.Fprintf(w, "%d base runs, %d head runs\n", nb, nh)
				return compareTable(w, def, base, head)
			}
		}
	}
	fmt.Fprintf(os.Stderr, "kvbench: %v\n", err)
	return 2
}

func compareTable(w io.Writer, def *benchmarkDef, base, head map[string]map[string][]float64) int {
	code := 0
	fmt.Fprintf(w, "%-20s %-26s %-36s %-36s %-6s %s\n", "workload", "metric", "base median [q1 q3]", "head median [q1 q3]", "wins", "verdict")
	for _, wd := range def.Workloads {
		for _, m := range def.EndToEnd {
			b, h := base[wd.Name][m.Name], head[wd.Name][m.Name]
			if len(b) == 0 || len(h) == 0 {
				continue
			}
			v := verdict(b, h, m.Better == "lower", m.Bound)
			if v == "regressed" {
				code = 1
			}
			b1, bm, b3 := quartiles(b)
			h1, hm, h3 := quartiles(h)
			won, pairs := wins(b, h, betterThan(m.Better == "lower"))
			fmt.Fprintf(w, "%-20s %-26s %-36s %-36s %-6s %s\n", wd.Name, m.Name,
				fmt.Sprintf("%.6g [%.6g %.6g]", bm, b1, b3), fmt.Sprintf("%.6g [%.6g %.6g]", hm, h1, h3),
				fmt.Sprintf("%d/%d", won, pairs), v)
		}
	}
	return code
}
