package main

import (
	"sort"
	"strings"
	"time"

	"ipra/internal/telemetry"
)

// spanTimes accumulates the spans the program already emits, keyed by
// "parent/name" because several names ("module", "link", "phase1") occur
// under more than one parent.
type spanTimes struct {
	self  map[string]time.Duration // duration minus the part children cover
	total map[string]time.Duration
}

func newSpanTimes() *spanTimes {
	return &spanTimes{
		self:  make(map[string]time.Duration),
		total: make(map[string]time.Duration),
	}
}

// add attributes every span of rep. Pipeline "worker" spans only group
// the items one goroutine ran, so their children count as children of the
// worker's parent.
func (st *spanTimes) add(rep *telemetry.Report) {
	if rep == nil {
		return
	}
	for _, n := range flatten(rep.Spans) {
		st.walk("", n)
	}
}

func (st *spanTimes) walk(parent string, n *telemetry.ReportSpan) {
	key := parent + "/" + n.Name
	kids := flatten(n.Children)
	st.self[key] += time.Duration(n.Dur - covered(n, kids))
	st.total[key] += time.Duration(n.Dur)
	for _, c := range kids {
		st.walk(n.Name, c)
	}
}

// flatten replaces worker spans by their children and drops instant
// events.
func flatten(ns []*telemetry.ReportSpan) []*telemetry.ReportSpan {
	var out []*telemetry.ReportSpan
	for _, n := range ns {
		switch {
		case n.Instant:
		case n.Name == "worker":
			out = append(out, flatten(n.Children)...)
		default:
			out = append(out, n)
		}
	}
	return out
}

// covered is how much of parent's interval the union of kids covers.
func covered(parent *telemetry.ReportSpan, kids []*telemetry.ReportSpan) int64 {
	type iv struct{ lo, hi int64 }
	lo, hi := parent.Start, parent.Start+parent.Dur
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, lo), min(k.Start+k.Dur, hi)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total int64
	end := lo
	for _, v := range ivs {
		if v.hi <= end {
			continue
		}
		if v.lo > end {
			end = v.lo
		}
		total += v.hi - end
		end = v.hi
	}
	return total
}

// setOverhead records trace.overhead_frac: the mean traced operation time
// over the mean untraced one, for operations doing the same work.
func setOverhead(r *result, traced, plain []time.Duration) {
	if len(traced) == 0 || len(plain) == 0 {
		return
	}
	mt := float64(sum(traced)) / float64(len(traced))
	mp := float64(sum(plain)) / float64(len(plain))
	r.set("trace.overhead_frac", mt/mp, "ratio")
}

// setSpanMetrics reports the self time of every span path, per traced
// operation, as span.<parent>.<name>_ms.
func setSpanMetrics(r *result, st *spanTimes, ops int) {
	if ops == 0 {
		return
	}
	for key, d := range st.self {
		name := "span." + strings.ReplaceAll(strings.TrimPrefix(key, "/"), "/", ".") + "_ms"
		r.set(name, ms(d)/float64(ops), "ms")
	}
}
