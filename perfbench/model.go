package main

import (
	"fmt"
	"sort"

	"tcodm/internal/temporal"
	"tcodm/internal/value"
	"tcodm/internal/workload"
)

// The shadow model is the benchmark's own account of the personnel data,
// independent of the engine: every employee attribute is a list of
// assertions "from valid time vt on, the value is v", each recorded at the
// transaction time of the commit that made it. Answers are computed from
// these lists with plain loops and compared with what the engine returns.

// assertion is one Set: from valid instant vt on, the value is v, as
// recorded by the commit at transaction time tt.
type assertion struct {
	tt, vt temporal.Instant
	v      int64
}

// attrLog is one attribute's assertions in commit order.
type attrLog []assertion

// at returns the value at valid time vt as recorded at transaction time tt:
// the last assertion (in commit order) made by tt that covers vt.
func (l attrLog) at(vt, tt temporal.Instant) (int64, bool) {
	var v int64
	found := false
	for _, a := range l {
		if a.tt <= tt && a.vt <= vt {
			v, found = a.v, true
		}
	}
	return v, found
}

// step is one constant piece of a valid-time step function.
type step struct {
	from, to temporal.Instant // [from, to); to == temporal.Forever for the open end
	v        int64
}

// steps returns the valid-time history recorded by tt, with equal adjacent
// pieces merged.
func (l attrLog) steps(tt temporal.Instant) []step {
	var points []temporal.Instant
	seen := map[temporal.Instant]bool{}
	for _, a := range l {
		if a.tt <= tt && !seen[a.vt] {
			seen[a.vt] = true
			points = append(points, a.vt)
		}
	}
	sort.Slice(points, func(i, j int) bool { return points[i] < points[j] })
	var out []step
	for i, p := range points {
		v, _ := l.at(p, tt)
		to := temporal.Forever
		if i+1 < len(points) {
			to = points[i+1]
		}
		if n := len(out); n > 0 && out[n-1].v == v {
			out[n-1].to = to
			continue
		}
		out = append(out, step{from: p, to: to, v: v})
	}
	return out
}

// clip restricts steps to the window [from, to).
func clip(steps []step, from, to temporal.Instant) []step {
	var out []step
	for _, s := range steps {
		f, t := s.from, s.to
		if f < from {
			f = from
		}
		if t > to {
			t = to
		}
		if f < t {
			out = append(out, step{from: f, to: t, v: s.v})
		}
	}
	return out
}

// emp is one employee in the shadow model.
type emp struct {
	id     value.ID
	name   string
	insTT  temporal.Instant // transaction time of its insert
	salary attrLog
	dept   attrLog // values are department indexes
}

// model is the shadow of the whole fixture plus every acknowledged commit
// made during the run.
type model struct {
	horizon   temporal.Instant // first valid instant past the generated history
	deptNames []string
	deptIDs   []value.ID
	deptIdx   map[value.ID]int
	emps      []*emp
	byName    map[string]*emp
	byID      map[value.ID]*emp
	// userBytes counts the value bytes the workload supplied: string
	// lengths plus eight bytes per integer or reference.
	userBytes int64
}

// buildModel replays the generated op list into the shadow model. tts[i]
// is the transaction time of the commit that applied ops[i]; ids maps
// insert handles to the surrogates the engine assigned.
func buildModel(ops []workload.Op, tts []temporal.Instant, ids []value.ID, horizon temporal.Instant) (*model, error) {
	m := &model{horizon: horizon, deptIdx: map[value.ID]int{}, byName: map[string]*emp{}, byID: map[value.ID]*emp{}}
	handleEmp := map[int]*emp{}
	handleDept := map[int]int{}
	handle := 0
	for i, op := range ops {
		tt := tts[i]
		switch op.Kind {
		case workload.OpInsert:
			for _, v := range op.Vals {
				m.userBytes += valueBytes(v)
			}
			m.userBytes += 8 * int64(len(op.Refs))
			id := ids[handle]
			switch op.Type {
			case "Dept":
				handleDept[handle] = len(m.deptNames)
				m.deptIdx[id] = len(m.deptNames)
				m.deptNames = append(m.deptNames, op.Vals["name"].AsString())
				m.deptIDs = append(m.deptIDs, id)
			case "Emp":
				d, ok := handleDept[op.Refs["dept"]]
				if !ok {
					return nil, fmt.Errorf("model: op %d: employee refers to unknown department handle %d", i, op.Refs["dept"])
				}
				e := &emp{id: id, name: op.Vals["name"].AsString(), insTT: tt,
					salary: attrLog{{tt: tt, vt: op.From, v: op.Vals["salary"].AsInt()}},
					dept:   attrLog{{tt: tt, vt: op.From, v: int64(d)}},
				}
				handleEmp[handle] = e
				m.emps = append(m.emps, e)
				m.byName[e.name] = e
				m.byID[id] = e
			default:
				return nil, fmt.Errorf("model: op %d: unexpected insert of %s", i, op.Type)
			}
			handle++
		case workload.OpUpdate:
			e := handleEmp[op.Handle]
			if e == nil || op.Attr != "salary" {
				return nil, fmt.Errorf("model: op %d: unexpected update of %s on handle %d", i, op.Attr, op.Handle)
			}
			m.userBytes += valueBytes(op.Val)
			e.salary = append(e.salary, assertion{tt: tt, vt: op.From, v: op.Val.AsInt()})
		case workload.OpUpdateRef:
			e := handleEmp[op.Handle]
			d, ok := handleDept[op.Target]
			if e == nil || !ok || op.Attr != "dept" {
				return nil, fmt.Errorf("model: op %d: unexpected reference update on handle %d", i, op.Handle)
			}
			m.userBytes += 8
			e.dept = append(e.dept, assertion{tt: tt, vt: op.From, v: int64(d)})
		default:
			return nil, fmt.Errorf("model: op %d: unexpected kind %d", i, op.Kind)
		}
	}
	return m, nil
}

func valueBytes(v value.V) int64 {
	if v.Kind() == value.KindString {
		return int64(len(v.AsString()))
	}
	return 8
}

// write is one acknowledged commit of the benchmark's writer: one Set on
// one employee, from a valid instant past the fixture's horizon.
type write struct {
	e    *emp
	dept bool  // department move (else salary raise)
	v    int64 // salary, or department index
	vt   temporal.Instant
}

// record adds an acknowledged commit at transaction time tt to the model.
func (m *model) record(w write, tt temporal.Instant) {
	m.userBytes += 8
	a := assertion{tt: tt, vt: w.vt, v: w.v}
	if w.dept {
		w.e.dept = append(w.e.dept, a)
	} else {
		w.e.salary = append(w.e.salary, a)
	}
}

// alive counts the employees inserted by tt (none are ever deleted).
func (m *model) alive(tt temporal.Instant) int {
	n := 0
	for _, e := range m.emps {
		if e.insTT <= tt {
			n++
		}
	}
	return n
}

// latest is the transaction time that sees every recorded commit.
const latest = temporal.Forever - 1
