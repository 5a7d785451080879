package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"

	"tcodm/internal/temporal"
	"tcodm/internal/value"
)

// kind classifies the benchmark's queries.
type kind int

const (
	kLookupNow kind = iota // LIMIT 1 name lookup without AT
	kLookupAt              // name lookup AT a past instant
	kDeptStaff             // one-department DeptStaff unnesting AT a past instant
	kAggregate             // TAVG/TMIN/TMAX/CHANGES over a valid-time window
	kHistory               // HISTORY(salary) of the employees a WHERE selects
	kDeptCount             // per-department COUNT(Emp) AT a past instant
	kAsOfHot               // past slice ASOF at or above the archive watermark
	kAsOfCold              // past slice ASOF below the archive watermark
)

var kindNames = [...]string{"lookup-now", "lookup-at", "dept-staff", "aggregate", "history", "dept-count", "asof-hot", "asof-cold"}

func (k kind) String() string { return kindNames[k] }

// molecule reports whether the query materializes DeptStaff molecules.
func (k kind) molecule() bool { return k == kDeptStaff || k == kDeptCount }

// qspec is one query of a workload's round: its TMQL text and the check
// its answer must pass against the shadow model.
type qspec struct {
	kind  kind
	text  string
	check func(m *model, rows [][]value.V) error
}

// The rounds are stratified so that their cost hardly depends on the
// seed: every employee and department is visited, instants are spread
// evenly over the valid-time range, and WHERE thresholds are quantiles of
// the shadow model's data, so each round returns nearly the same number of
// rows whatever the seed. The seed picks the data, the visiting order and
// the jitter within each stratum.

// pointMix is the point-read round: a LIMIT 1 name lookup without AT and
// a name lookup AT a past instant for every employee, and as many
// one-department DeptStaff unnestings AT a past instant, interleaved in a
// seeded order.
func pointMix(m *model, rng *rand.Rand, _ ttRange) []qspec {
	n := len(m.emps)
	var out []qspec
	for i, e := range rng.Perm(n) {
		out = append(out,
			lookupNow(m.emps[e]),
			lookupAt(m.emps[(e+n/2)%n], stratum(m.horizon, i, n, rng)),
			deptStaff(i%len(m.deptNames), m.deptNames, stratum(m.horizon, i, n, rng)))
	}
	return out
}

// historyMix is the history-scan round: full-history aggregates over
// valid-time windows, filtered HISTORY retrieval, per-department counts at
// past instants, and past slices ASOF above and below the archive
// watermark, eight of each.
func historyMix(m *model, rng *rand.Rand, tts ttRange) []qspec {
	const per = 8
	var out []qspec
	half := m.horizon / 2
	for _, i := range rng.Perm(per) {
		a := stratum(half, i, per, rng)
		t := stratum(m.horizon, i, per, rng)
		hot := tts.watermark + stratum(tts.last-tts.watermark+1, i, per, rng)
		cold := tts.first + stratum(tts.watermark-tts.first, i, per, rng)
		out = append(out,
			aggregate(a, a+half),
			history(salaryQuantile(m, m.horizon, latest, 0.9)),
			deptCount(t),
			asOf(kAsOfHot, salaryQuantile(m, t, hot, 0.8), t, hot),
			asOf(kAsOfCold, salaryQuantile(m, t, cold, 0.8), t, cold))
	}
	return out
}

// ttRange holds the transaction times of the fixture's update commits and
// the archive watermark between them.
type ttRange struct{ first, watermark, last temporal.Instant }

// stratum returns a seeded instant in the i-th of n equal slices of [0, span).
func stratum(span temporal.Instant, i, n int, rng *rand.Rand) temporal.Instant {
	lo := int64(span) * int64(i) / int64(n)
	hi := int64(span) * int64(i+1) / int64(n)
	return temporal.Instant(lo + rng.Int63n(max(1, hi-lo)))
}

// salaryQuantile returns the salary below which the fraction q of the
// employees recorded by tt earn at valid time vt.
func salaryQuantile(m *model, vt, tt temporal.Instant, q float64) int64 {
	var s []int64
	for _, e := range m.emps {
		if v, ok := e.salary.at(vt, tt); ok {
			s = append(s, v)
		}
	}
	if len(s) == 0 {
		return 0
	}
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[min(len(s)-1, int(q*float64(len(s))))]
}

func lookupNow(e *emp) qspec {
	return qspec{kind: kLookupNow,
		text: fmt.Sprintf(`SELECT (name, salary, dept) FROM Emp WHERE name = "%s" LIMIT 1`, e.name),
		check: func(m *model, rows [][]value.V) error {
			s, d, err := oneEmpRow(m, rows, e)
			if err != nil {
				return err
			}
			// Without AT the valid-time slice is the engine clock, which sits
			// at or past the horizon and moves with every commit: the answer
			// must be a state the employee held at some instant from the
			// horizon on.
			points := []temporal.Instant{m.horizon}
			for _, l := range []attrLog{e.salary, e.dept} {
				for _, a := range l {
					if a.vt > m.horizon {
						points = append(points, a.vt)
					}
				}
			}
			for _, vt := range points {
				ws, _ := e.salary.at(vt, latest)
				wd, _ := e.dept.at(vt, latest)
				if ws == s && wd == d {
					return nil
				}
			}
			return fmt.Errorf("%s held no state (salary %d, dept %d) at or after the horizon %d", e.name, s, d, m.horizon)
		}}
}

func lookupAt(e *emp, t temporal.Instant) qspec {
	return qspec{kind: kLookupAt,
		text: fmt.Sprintf(`SELECT (name, salary, dept) FROM Emp WHERE name = "%s" AT %d`, e.name, t),
		check: func(m *model, rows [][]value.V) error {
			s, d, err := oneEmpRow(m, rows, e)
			if err != nil {
				return err
			}
			ws, _ := e.salary.at(t, latest)
			wd, _ := e.dept.at(t, latest)
			if s != ws || d != wd {
				return fmt.Errorf("%s at %d: got salary %d dept %d, want salary %d dept %d", e.name, t, s, d, ws, wd)
			}
			return nil
		}}
}

// oneEmpRow decodes the single (name, salary, dept) row of a lookup.
func oneEmpRow(m *model, rows [][]value.V, e *emp) (salary, dept int64, err error) {
	if len(rows) != 1 {
		return 0, 0, fmt.Errorf("lookup of %s: got %d rows, want 1", e.name, len(rows))
	}
	return empRow(m, rows[0], e.name)
}

// empRow decodes a (name, salary, dept) row, checking the name.
func empRow(m *model, row []value.V, name string) (salary, dept int64, err error) {
	if len(row) != 3 {
		return 0, 0, fmt.Errorf("row has %d columns, want 3", len(row))
	}
	if n, ok := str(row[0]); !ok || n != name {
		return 0, 0, fmt.Errorf("row names %v, want %s", row[0], name)
	}
	s, ok := integer(row[1])
	if !ok {
		return 0, 0, fmt.Errorf("%s: salary %v is not an integer", name, row[1])
	}
	d, ok := deptOf(m, row[2])
	if !ok {
		return 0, 0, fmt.Errorf("%s: dept %v is not a department", name, row[2])
	}
	return s, int64(d), nil
}

func deptStaff(d int, names []string, t temporal.Instant) qspec {
	return qspec{kind: kDeptStaff,
		text: fmt.Sprintf(`SELECT (Dept.name, Emp.name, Emp.salary) FROM DeptStaff WHERE Dept.name = "%s" AT %d`, names[d], t),
		check: func(m *model, rows [][]value.V) error {
			var want []string
			for _, e := range m.emps {
				if ed, ok := e.dept.at(t, latest); ok && int(ed) == d {
					s, _ := e.salary.at(t, latest)
					want = append(want, fmt.Sprintf("%s=%d", e.name, s))
				}
			}
			var got []string
			for _, r := range rows {
				if len(r) != 3 {
					return fmt.Errorf("dept-staff row has %d columns, want 3", len(r))
				}
				if n, ok := str(r[0]); !ok || n != m.deptNames[d] {
					return fmt.Errorf("dept-staff row names department %v, want %s", r[0], m.deptNames[d])
				}
				if r[1].IsNull() && len(want) == 0 && len(rows) == 1 {
					continue // an empty department unnests to one row without staff
				}
				n, ok1 := str(r[1])
				s, ok2 := integer(r[2])
				if !ok1 || !ok2 {
					return fmt.Errorf("dept-staff row %v is not (name, salary)", r)
				}
				got = append(got, fmt.Sprintf("%s=%d", n, s))
			}
			return sameSet(fmt.Sprintf("staff of %s at %d", m.deptNames[d], t), got, want)
		}}
}

func aggregate(a, b temporal.Instant) qspec {
	return qspec{kind: kAggregate,
		text: fmt.Sprintf(`SELECT (name, TAVG(salary), TMIN(salary), TMAX(salary), CHANGES(salary)) FROM Emp DURING [%d, %d)`, a, b),
		check: func(m *model, rows [][]value.V) error {
			if len(rows) != len(m.emps) {
				return fmt.Errorf("aggregate over [%d, %d): got %d rows, want %d", a, b, len(rows), len(m.emps))
			}
			for _, r := range rows {
				if err := checkAggregate(m, r, a, b); err != nil {
					return err
				}
			}
			return nil
		}}
}

func checkAggregate(m *model, r []value.V, a, b temporal.Instant) error {
	if len(r) != 5 {
		return fmt.Errorf("aggregate row has %d columns, want 5", len(r))
	}
	n, _ := str(r[0])
	e := m.byName[n]
	if e == nil {
		return fmt.Errorf("aggregate row names unknown employee %v", r[0])
	}
	avg, ok1 := number(r[1])
	lo, ok2 := integer(r[2])
	hi, ok3 := integer(r[3])
	ch, ok4 := integer(r[4])
	if !ok1 || !ok2 || !ok3 || !ok4 {
		return fmt.Errorf("%s: aggregate row %v has wrong kinds", n, r)
	}
	// Properties first: they hold whatever the window.
	if !(float64(lo) <= avg && avg <= float64(hi)) {
		return fmt.Errorf("%s: TMIN %d <= TAVG %g <= TMAX %d does not hold", n, lo, avg, hi)
	}
	steps := clip(e.salary.steps(latest), a, b)
	var sum, dur float64
	wlo, whi := int64(math.MaxInt64), int64(math.MinInt64)
	for _, s := range steps {
		d := float64(s.to - s.from)
		sum += float64(s.v) * d
		dur += d
		wlo = min(wlo, s.v)
		whi = max(whi, s.v)
	}
	wavg := sum / dur
	if lo != wlo || hi != whi || ch != int64(len(steps)-1) || math.Abs(avg-wavg) > 1e-9*math.Abs(wavg) {
		return fmt.Errorf("%s over [%d, %d): got (%g, %d, %d, %d), want (%g, %d, %d, %d)",
			n, a, b, avg, lo, hi, ch, wavg, wlo, whi, len(steps)-1)
	}
	return nil
}

func history(above int64) qspec {
	return qspec{kind: kHistory,
		text: fmt.Sprintf(`SELECT HISTORY(salary) FROM Emp WHERE salary > %d`, above),
		check: func(m *model, rows [][]value.V) error {
			got := map[value.ID][]step{}
			for _, r := range rows {
				if len(r) != 4 {
					return fmt.Errorf("history row has %d columns, want 4", len(r))
				}
				id, ok1 := ref(r[0])
				v, ok2 := integer(r[1])
				f, ok3 := instant(r[2])
				t, ok4 := instant(r[3])
				if !ok1 || !ok2 || !ok3 || !ok4 {
					return fmt.Errorf("history row %v has wrong kinds", r)
				}
				h := got[id]
				if n := len(h); n > 0 && h[n-1].to == f && h[n-1].v == v {
					h[n-1].to = t // an equal-valued abutting step: same step function
				} else {
					h = append(h, step{from: f, to: t, v: v})
				}
				got[id] = h
			}
			want := 0
			for _, e := range m.emps {
				if s, _ := e.salary.at(m.horizon, latest); s <= above {
					continue
				}
				want++
				if err := sameSteps(e.name, got[e.id], e.salary.steps(latest)); err != nil {
					return err
				}
			}
			if len(got) != want {
				return fmt.Errorf("history of salary > %d: got %d employees, want %d", above, len(got), want)
			}
			return nil
		}}
}

func sameSteps(name string, got, want []step) error {
	if len(got) != len(want) {
		return fmt.Errorf("history of %s: got %d steps, want %d", name, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("history of %s: step %d is %+v, want %+v", name, i, got[i], want[i])
		}
	}
	return nil
}

func deptCount(t temporal.Instant) qspec {
	return qspec{kind: kDeptCount,
		text: fmt.Sprintf(`SELECT (Dept.name, COUNT(Emp)) FROM DeptStaff AT %d`, t),
		check: func(m *model, rows [][]value.V) error {
			want := make([]int64, len(m.deptNames))
			for _, e := range m.emps {
				if d, ok := e.dept.at(t, latest); ok {
					want[d]++
				}
			}
			got := make([]int64, len(m.deptNames))
			var sum int64
			for _, r := range rows {
				if len(r) != 2 {
					return fmt.Errorf("dept-count row has %d columns, want 2", len(r))
				}
				n, _ := str(r[0])
				c, ok := integer(r[1])
				d := indexOf(m.deptNames, n)
				if d < 0 || !ok {
					return fmt.Errorf("dept-count row %v is not (department, count)", r)
				}
				got[d] += c
				sum += c
			}
			if alive := int64(m.alive(latest)); sum != alive {
				return fmt.Errorf("dept counts at %d sum to %d, want the %d employees alive", t, sum, alive)
			}
			for d := range want {
				if got[d] != want[d] {
					return fmt.Errorf("%s at %d: got %d staff, want %d", m.deptNames[d], t, got[d], want[d])
				}
			}
			return nil
		}}
}

func asOf(k kind, above int64, t, tt temporal.Instant) qspec {
	return qspec{kind: k,
		text: fmt.Sprintf(`SELECT (name, salary, dept) FROM Emp WHERE salary > %d AT %d ASOF %d`, above, t, tt),
		check: func(m *model, rows [][]value.V) error {
			var want []string
			for _, e := range m.emps {
				s, ok := e.salary.at(t, tt)
				if !ok || s <= above {
					continue
				}
				d, _ := e.dept.at(t, tt)
				want = append(want, fmt.Sprintf("%s=%d/%d", e.name, s, d))
			}
			var got []string
			for _, r := range rows {
				n, _ := str(r[0])
				s, d, err := empRow(m, r, n)
				if err != nil {
					return err
				}
				got = append(got, fmt.Sprintf("%s=%d/%d", n, s, d))
			}
			return sameSet(fmt.Sprintf("salary > %d at %d asof %d", above, t, tt), got, want)
		}}
}

// sameSet compares two multisets of rendered rows.
func sameSet(what string, got, want []string) error {
	sort.Strings(got)
	sort.Strings(want)
	if strings.Join(got, ",") != strings.Join(want, ",") {
		return fmt.Errorf("%s: got %d rows %s, want %d rows %s", what, len(got), abbrev(got), len(want), abbrev(want))
	}
	return nil
}

func abbrev(s []string) string {
	if len(s) > 6 {
		return fmt.Sprintf("%v…", s[:6])
	}
	return fmt.Sprint(s)
}

func indexOf(s []string, x string) int {
	for i, v := range s {
		if v == x {
			return i
		}
	}
	return -1
}

// Kind-checked accessors: a wrong answer must fail a check, not panic.

func str(v value.V) (string, bool) {
	if v.Kind() != value.KindString {
		return "", false
	}
	return v.AsString(), true
}

func integer(v value.V) (int64, bool) {
	if v.Kind() != value.KindInt {
		return 0, false
	}
	return v.AsInt(), true
}

func number(v value.V) (float64, bool) {
	if !v.Numeric() {
		return 0, false
	}
	return v.FloatValue(), true
}

func ref(v value.V) (value.ID, bool) {
	if v.Kind() != value.KindID {
		return 0, false
	}
	return v.AsID(), true
}

func instant(v value.V) (temporal.Instant, bool) {
	if v.Kind() != value.KindInstant {
		return 0, false
	}
	return v.AsInstant(), true
}

func deptOf(m *model, v value.V) (int, bool) {
	id, ok := ref(v)
	if !ok {
		return 0, false
	}
	d, ok := m.deptIdx[id]
	return d, ok
}
