package repro

// Every speed number README.md and DESIGN.md quote must come from a
// measured source: a benchregress row in BENCH_hotpath.json, or a kvbench
// run committed under results/kvbench/. This test resolves each cited
// row and run, and checks every number a table quotes for one against
// the recorded value at the precision written. Running text may cite a
// source but quotes no speed figure, which nothing would compare.

import (
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// hotPathRow is the part of a BENCH_hotpath.json row the docs quote.
type hotPathRow struct {
	Name           string  `json:"name"`
	NSPerAccess    float64 `json:"ns_per_access"`
	AccessesPerSec float64 `json:"accesses_per_sec"`
}

// kvbenchRun is the part of a kvbench -out file the docs rely on.
type kvbenchRun struct {
	Results []struct {
		Workload string `json:"workload"`
		Valid    bool   `json:"valid"`
		Correct  bool   `json:"correct"`
		Metrics  map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	} `json:"results"`
}

var (
	backticked  = regexp.MustCompile("`([^`\n]+)`")
	rowNameLike = regexp.MustCompile(`^[A-Za-z0-9]+(/[A-Za-z0-9{},]+)+$`)
	kvbenchPath = regexp.MustCompile(`results/kvbench/[A-Za-z0-9_-]+\.json`)
	// speedCell is a table cell holding one number with a k or M suffix,
	// the way the docs write throughputs.
	speedCell = regexp.MustCompile(`^~?([0-9]+(?:\.[0-9]+)?)\s*([kM])$`)
	// plainCell is a table cell holding one unsuffixed number.
	plainCell = regexp.MustCompile(`^~?([0-9]+(?:\.[0-9]+)?)$`)
	// proseSpeed is a speed or latency figure written into running text.
	proseSpeed = regexp.MustCompile(`[0-9]+(?:\.[0-9]+)?\s*[kM]?\s*(?:ns/acc|(?:acc|ops|keys|key-ops)/s|µs)`)
)

// expandBraces expands shell-style alternatives: "p{1,2}" yields "p1"
// and "p2", and several groups yield their cartesian product.
func expandBraces(s string) []string {
	open := strings.IndexByte(s, '{')
	if open < 0 {
		return []string{s}
	}
	end := strings.IndexByte(s[open:], '}')
	if end < 0 {
		return []string{s}
	}
	end += open
	var out []string
	for _, alt := range strings.Split(s[open+1:end], ",") {
		out = append(out, expandBraces(s[:open]+alt+s[end+1:])...)
	}
	return out
}

// checkCell compares a table cell against value at the precision the
// cell is written in, after the cell's k or M suffix if it has one.
func checkCell(cell string, value float64) error {
	mant, scale := "", 1.0
	if m := speedCell.FindStringSubmatch(cell); m != nil {
		mant = m[1]
		scale = map[string]float64{"k": 1e3, "M": 1e6}[m[2]]
	} else if m := plainCell.FindStringSubmatch(cell); m != nil {
		mant = m[1]
	} else {
		return fmt.Errorf("cell %q is not a number", cell)
	}
	decimals := 0
	if dot := strings.IndexByte(mant, '.'); dot >= 0 {
		decimals = len(mant) - dot - 1
	}
	if want := strconv.FormatFloat(value/scale, 'f', decimals, 64); want != mant {
		return fmt.Errorf("cell %q, source reads %s", cell, want)
	}
	return nil
}

// tableRows splits a Markdown document into its tables' body rows, each
// paired with the header cells of its table.
func tableRows(doc string) (rows [][]string, headers [][]string) {
	cells := func(line string) []string {
		parts := strings.Split(strings.Trim(strings.TrimSpace(line), "|"), "|")
		for i := range parts {
			parts[i] = strings.TrimSpace(parts[i])
		}
		return parts
	}
	var header []string
	inTable := 0 // lines seen in the current table
	for _, line := range strings.Split(doc, "\n") {
		if !strings.HasPrefix(strings.TrimSpace(line), "|") {
			inTable = 0
			continue
		}
		inTable++
		switch inTable {
		case 1:
			header = cells(line)
		case 2: // the |---| separator
		default:
			rows = append(rows, cells(line))
			headers = append(headers, header)
		}
	}
	return rows, headers
}

func TestDocSpeedNumbersHaveSources(t *testing.T) {
	buf, err := os.ReadFile("BENCH_hotpath.json")
	if err != nil {
		t.Fatal(err)
	}
	var hot struct {
		HotPath []hotPathRow `json:"hot_path"`
	}
	if err := json.Unmarshal(buf, &hot); err != nil {
		t.Fatalf("BENCH_hotpath.json: %v", err)
	}
	rows := make(map[string]hotPathRow)
	families := make(map[string]bool)
	for _, r := range hot.HotPath {
		rows[r.Name] = r
		families[strings.SplitN(r.Name, "/", 2)[0]] = true
	}
	// rowNames returns the benchregress rows span cites, if it is a
	// row name or a brace pattern of row names.
	rowNames := func(span string) []string {
		if !rowNameLike.MatchString(span) || !families[strings.SplitN(span, "/", 2)[0]] {
			return nil
		}
		return expandBraces(span)
	}
	loadRun := func(path string) (*kvbenchRun, error) {
		buf, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		r := new(kvbenchRun)
		if err := json.Unmarshal(buf, r); err != nil {
			return nil, fmt.Errorf("%s: %v", path, err)
		}
		if len(r.Results) == 0 {
			return nil, fmt.Errorf("%s holds no results", path)
		}
		for _, res := range r.Results {
			if !res.Valid || !res.Correct {
				return nil, fmt.Errorf("%s: %s has valid=%v correct=%v", path, res.Workload, res.Valid, res.Correct)
			}
		}
		return r, nil
	}

	for _, doc := range []string{"README.md", "DESIGN.md"} {
		buf, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		text := string(buf)
		for _, m := range backticked.FindAllStringSubmatch(text, -1) {
			for _, name := range rowNames(m[1]) {
				if _, ok := rows[name]; !ok {
					t.Errorf("%s: `%s` names no row of BENCH_hotpath.json (%s)", doc, m[1], name)
				}
			}
		}
		for _, path := range kvbenchPath.FindAllString(text, -1) {
			if _, err := loadRun(path); err != nil {
				t.Errorf("%s: %v", doc, err)
			}
		}
		for _, fig := range proseSpeed.FindAllString(prose(text), -1) {
			t.Errorf("%s: running text quotes %q; quote it in a table row that names its source", doc, fig)
		}

		body, headers := tableRows(text)
		for i, cells := range body {
			first, header := cells[0], headers[i]
			src := ""
			if m := backticked.FindStringSubmatch(first); m != nil && m[0] == first {
				src = m[1]
			}
			row, isRow := rows[src]
			var run *kvbenchRun
			isRun := src != "" && kvbenchPath.FindString(src) == src
			if isRun {
				run, _ = loadRun(src) // a bad file is reported above
				if run != nil && len(run.Results) != 1 {
					t.Errorf("%s: table row %s quotes one run, the file holds %d", doc, first, len(run.Results))
					run = nil
				}
			}
			for c := 1; c < len(cells) && c < len(header); c++ {
				col := strings.ToLower(header[c])
				var (
					value  float64
					quoted bool
				)
				switch {
				case isRow:
					value, quoted = rowValue(row, col)
				case run != nil:
					value, quoted = runValue(run, col)
				}
				if quoted {
					if err := checkCell(cells[c], value); err != nil {
						t.Errorf("%s: %s, column %q: %v", doc, first, header[c], err)
					}
				} else if speedCell.MatchString(cells[c]) && rowNames(src) == nil && !isRun {
					t.Errorf("%s: table row %q quotes %s but names no benchregress row or kvbench run as its first cell",
						doc, first, cells[c])
				}
			}
		}
	}
}

// prose returns doc without its table lines.
func prose(doc string) string {
	var b strings.Builder
	for _, line := range strings.Split(doc, "\n") {
		if !strings.HasPrefix(strings.TrimSpace(line), "|") {
			b.WriteString(line)
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// rowValue returns the recorded value a benchregress table column quotes.
func rowValue(r hotPathRow, col string) (float64, bool) {
	switch {
	case strings.Contains(col, "acc/s"), strings.Contains(col, "keys/s"):
		return r.AccessesPerSec, true
	case strings.Contains(col, "ns/acc"):
		return r.NSPerAccess, true
	}
	return 0, false
}

// runValue returns the recorded metric a kvbench table column quotes.
func runValue(r *kvbenchRun, col string) (float64, bool) {
	var metric string
	switch {
	case strings.Contains(col, "ops/s"):
		metric = "ops_per_s"
	case strings.Contains(col, "p50"):
		metric = "latency_p50_us"
	case strings.Contains(col, "p99"):
		metric = "latency_p99_us"
	default:
		return 0, false
	}
	m, ok := r.Results[0].Metrics[metric]
	return m.Value, ok
}

func TestExpandBraces(t *testing.T) {
	got := expandBraces("kv/Get/contended/{locked,optimistic}/p{1,2}")
	want := []string{
		"kv/Get/contended/locked/p1", "kv/Get/contended/locked/p2",
		"kv/Get/contended/optimistic/p1", "kv/Get/contended/optimistic/p2",
	}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("expandBraces = %v, want %v", got, want)
	}
}
