package metrics

// Exposition linting. Lint is exported (rather than living in a _test
// file) because every layer that serves or scrapes the exposition —
// kvserver's /metrics tests, adaptcached's handler test, cmd/kvchaos's
// node-topology metric-invariant gate — validates the same contract:
// parseable Prometheus text, declared types, and internally consistent
// histograms.

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// histSeries accumulates one histogram series' bucket lines for
// consistency checking.
type histSeries struct {
	lastLE  float64
	lastCum float64
	infCum  float64
	hasInf  bool
	count   float64
	hasCnt  bool
}

// Lint validates Prometheus text exposition: every sample belongs to a
// family with a prior TYPE declaration, names and values parse, no
// series appears twice, and histogram series have strictly increasing le
// bounds, non-decreasing cumulative counts, and a +Inf bucket equal to
// their _count. It returns the first violation found, or nil.
//
// The parser covers the exposition this package writes (it does not
// handle escaped quotes or commas inside label values, which no metric
// here produces).
func Lint(data []byte) error {
	types := make(map[string]string)
	seen := make(map[string]struct{})
	hists := make(map[string]*histSeries)

	for ln, line := range strings.Split(string(data), "\n") {
		lineNo := ln + 1
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			fields := strings.Fields(line[len("# TYPE "):])
			if len(fields) != 2 {
				return fmt.Errorf("line %d: malformed TYPE: %q", lineNo, line)
			}
			name, kind := fields[0], fields[1]
			if kind != kindCounter && kind != kindGauge && kind != kindHistogram {
				return fmt.Errorf("line %d: unknown TYPE %q for %s", lineNo, kind, name)
			}
			if _, dup := types[name]; dup {
				return fmt.Errorf("line %d: duplicate TYPE for %s", lineNo, name)
			}
			types[name] = kind
			continue
		}
		if strings.HasPrefix(line, "#") {
			return fmt.Errorf("line %d: unknown comment form: %q", lineNo, line)
		}

		name, labels, value, err := parseSample(line)
		if err != nil {
			return fmt.Errorf("line %d: %v", lineNo, err)
		}
		series := name + "{" + labels + "}"
		if _, dup := seen[series]; dup {
			return fmt.Errorf("line %d: duplicate series %s", lineNo, series)
		}
		seen[series] = struct{}{}

		family, part := name, ""
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			base := strings.TrimSuffix(name, suffix)
			if base != name && types[base] == kindHistogram {
				family, part = base, suffix
				break
			}
		}
		kind, declared := types[family]
		if !declared {
			return fmt.Errorf("line %d: sample %s has no TYPE declaration", lineNo, name)
		}
		if kind == kindHistogram && part == "" {
			return fmt.Errorf("line %d: bare sample %s for histogram family", lineNo, name)
		}
		if kind != kindHistogram && part != "" {
			part = "" // _sum/_count suffix on a non-histogram name: plain sample
		}
		if kind != kindHistogram {
			continue
		}

		le, rest := splitLE(labels)
		key := family + "{" + rest + "}"
		hs := hists[key]
		if hs == nil {
			hs = &histSeries{lastLE: math.Inf(-1)}
			hists[key] = hs
		}
		switch part {
		case "_bucket":
			if le == "" {
				return fmt.Errorf("line %d: bucket without le label: %q", lineNo, line)
			}
			var bound float64
			if le == "+Inf" {
				bound = math.Inf(1)
			} else if bound, err = strconv.ParseFloat(le, 64); err != nil {
				return fmt.Errorf("line %d: bad le %q", lineNo, le)
			}
			if bound <= hs.lastLE {
				return fmt.Errorf("line %d: le %q not increasing for %s", lineNo, le, key)
			}
			if value < hs.lastCum {
				return fmt.Errorf("line %d: cumulative count decreased for %s le=%s", lineNo, key, le)
			}
			hs.lastLE, hs.lastCum = bound, value
			if math.IsInf(bound, 1) {
				hs.infCum, hs.hasInf = value, true
			}
		case "_count":
			hs.count, hs.hasCnt = value, true
		}
	}

	for key, hs := range hists {
		if !hs.hasInf {
			return fmt.Errorf("histogram %s has no +Inf bucket", key)
		}
		if !hs.hasCnt {
			return fmt.Errorf("histogram %s has no _count", key)
		}
		if hs.infCum != hs.count {
			return fmt.Errorf("histogram %s: +Inf bucket %v != count %v", key, hs.infCum, hs.count)
		}
	}
	return nil
}

// parseSample splits `name{labels} value` (labels optional).
func parseSample(line string) (name, labels string, value float64, err error) {
	rest := line
	if i := strings.IndexByte(line, '{'); i >= 0 {
		j := strings.IndexByte(line, '}')
		if j < i {
			return "", "", 0, fmt.Errorf("unbalanced braces: %q", line)
		}
		name, labels, rest = line[:i], line[i+1:j], strings.TrimSpace(line[j+1:])
	} else {
		i := strings.IndexByte(line, ' ')
		if i < 0 {
			return "", "", 0, fmt.Errorf("no value: %q", line)
		}
		name, rest = line[:i], strings.TrimSpace(line[i+1:])
	}
	if !validMetricName(name) {
		return "", "", 0, fmt.Errorf("invalid metric name %q", name)
	}
	value, err = strconv.ParseFloat(rest, 64)
	if err != nil {
		return "", "", 0, fmt.Errorf("bad value %q: %v", rest, err)
	}
	return name, labels, value, nil
}

// splitLE extracts the le label from a label string, returning the rest.
func splitLE(labels string) (le, rest string) {
	parts := strings.Split(labels, ",")
	kept := parts[:0]
	for _, p := range parts {
		if strings.HasPrefix(p, `le="`) && strings.HasSuffix(p, `"`) {
			le = p[len(`le="`) : len(p)-1]
			continue
		}
		kept = append(kept, p)
	}
	return le, strings.Join(kept, ",")
}

func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}
