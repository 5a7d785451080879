package main

import (
	"math/rand"
	"path/filepath"
	"testing"

	"tcodm/internal/temporal"
	"tcodm/internal/value"
	"tcodm/internal/workload"
)

// TestChecksRejectWrongAnswers runs every query kind against a small
// archived store, confirms the engine's answer passes its check, then
// feeds the check deliberately wrong answers and expects each rejected.
func TestChecksRejectWrongAnswers(t *testing.T) {
	r := &runner{w: &workloadSpec{params: workload.PersonnelParams{
		Depts: 3, Emps: 40, UpdatesPerEmp: 4, MovesPerEmp: 2, TimeStep: 10}}, seed: 3}
	db, m, tts, err := r.load(filepath.Join(t.TempDir(), "p.tdb"), false)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.Archive(tts.watermark); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	qs := append(pointMix(m, rng, tts)[:9], historyMix(m, rng, tts)...)
	seen := map[kind]bool{}
	for _, q := range qs {
		res, err := db.Query(q.text)
		if err != nil {
			t.Fatalf("%s: %v", q.text, err)
		}
		if err := q.check(m, res.Rows); err != nil {
			t.Fatalf("correct answer rejected: %v", err)
		}
		seen[q.kind] = true
		for name, bad := range corruptions(res.Rows) {
			if q.check(m, bad) == nil {
				t.Errorf("%s: wrong answer (%s) accepted", q.text, name)
			}
		}
	}
	if len(seen) != len(kindNames) {
		t.Errorf("covered %d query kinds, want %d", len(seen), len(kindNames))
	}
}

// corruptions derives wrong answers from a correct one.
func corruptions(rows [][]value.V) map[string][][]value.V {
	out := map[string][][]value.V{}
	if len(rows) == 0 {
		out["invented row"] = [][]value.V{{value.String_("emp-9999"), value.Int(1), value.Int(1)}}
		return out
	}
	out["row dropped"] = copyRows(rows[:len(rows)-1])
	out["row duplicated"] = append(copyRows(rows), rows[0])
	bumped := copyRows(rows)
	for i, v := range bumped[0] {
		if v.Kind() == value.KindInt {
			bumped[0][i] = value.Int(v.AsInt() + 1)
			out["integer bumped"] = bumped
			break
		}
	}
	return out
}

func copyRows(rows [][]value.V) [][]value.V {
	out := make([][]value.V, len(rows))
	for i, r := range rows {
		out[i] = append([]value.V(nil), r...)
	}
	return out
}

// TestAttrLog pins the shadow model's bitemporal reading of assertions.
func TestAttrLog(t *testing.T) {
	l := attrLog{{tt: 1, vt: 0, v: 10}, {tt: 2, vt: 20, v: 30}, {tt: 3, vt: 10, v: 20}, {tt: 4, vt: 30, v: 20}}
	for _, c := range []struct {
		vt, tt int64
		want   int64
		ok     bool
	}{
		{5, 0, 0, false}, {5, 1, 10, true}, {25, 2, 30, true}, {25, 3, 20, true}, {15, 2, 10, true}, {35, 4, 20, true},
	} {
		got, ok := l.at(temporal.Instant(c.vt), temporal.Instant(c.tt))
		if got != c.want || ok != c.ok {
			t.Errorf("at(%d, %d) = %d, %v; want %d, %v", c.vt, c.tt, got, ok, c.want, c.ok)
		}
	}
	// At tt 4 the history is 10 on [0,10), then 20 from 10 on: the steps
	// at 20 and 30 carry the same value and merge.
	steps := l.steps(temporal.Instant(4))
	if len(steps) != 2 || steps[0].v != 10 || steps[1].v != 20 || steps[1].from != 10 {
		t.Errorf("steps at tt 4 = %+v", steps)
	}
}
