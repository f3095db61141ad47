package oplist

import (
	"encoding/json"
	"fmt"

	"repro/internal/plan"
	"repro/internal/rat"
)

// listJSON is the serialized form of an operation list. Times are exact
// rationals in string form; communications are keyed by their endpoints so
// files remain meaningful independent of internal edge numbering.
type listJSON struct {
	Lambda rat.Rat    `json:"lambda"`
	Calc   []calcJSON `json:"calc"`
	Comm   []commJSON `json:"comm"`
}

type calcJSON struct {
	Node  string  `json:"node"`
	Begin rat.Rat `json:"begin"`
}

type commJSON struct {
	From  string  `json:"from"` // node name, or "in"
	To    string  `json:"to"`   // node name, or "out"
	Begin rat.Rat `json:"begin"`
	End   rat.Rat `json:"end"`
}

// MarshalJSON serializes the schedule with exact times.
func (l *List) MarshalJSON() ([]byte, error) {
	w := l.w
	doc := listJSON{Lambda: l.lambda}
	for v := 0; v < w.N(); v++ {
		doc.Calc = append(doc.Calc, calcJSON{Node: w.Name(v), Begin: l.calcBegin[v]})
	}
	for idx, e := range w.Edges() {
		doc.Comm = append(doc.Comm, commJSON{
			From:  endpointName(w, e.From),
			To:    endpointName(w, e.To),
			Begin: l.commBegin[idx],
			End:   l.commEnd[idx],
		})
	}
	return json.Marshal(doc)
}

// LoadList reconstructs an operation list for plan w from data produced by
// MarshalJSON. Every node and communication of w must be present exactly
// once; times are restored exactly.
func LoadList(w *plan.Weighted, data []byte) (*List, error) {
	var doc listJSON
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("oplist: %w", err)
	}
	l := New(w, doc.Lambda)
	nameToNode := make(map[string]int, w.N())
	for v := 0; v < w.N(); v++ {
		nameToNode[w.Name(v)] = v
	}
	seenCalc := make([]bool, w.N())
	for _, c := range doc.Calc {
		v, ok := nameToNode[c.Node]
		if !ok {
			return nil, fmt.Errorf("oplist: unknown node %q", c.Node)
		}
		if seenCalc[v] {
			return nil, fmt.Errorf("oplist: duplicate calc entry for %q", c.Node)
		}
		seenCalc[v] = true
		l.SetCalc(v, c.Begin)
	}
	for v, seen := range seenCalc {
		if !seen {
			return nil, fmt.Errorf("oplist: missing calc entry for %q", w.Name(v))
		}
	}
	resolve := func(name string, virtual int) (int, error) {
		switch name {
		case "in":
			return plan.In, nil
		case "out":
			return plan.Out, nil
		}
		if v, ok := nameToNode[name]; ok {
			return v, nil
		}
		return virtual, fmt.Errorf("oplist: unknown endpoint %q", name)
	}
	seenComm := make([]bool, len(w.Edges()))
	for _, c := range doc.Comm {
		from, err := resolve(c.From, plan.In)
		if err != nil {
			return nil, err
		}
		to, err := resolve(c.To, plan.Out)
		if err != nil {
			return nil, err
		}
		idx := w.EdgeIndex(plan.Edge{From: from, To: to})
		if idx < 0 {
			return nil, fmt.Errorf("oplist: plan has no communication %s -> %s", c.From, c.To)
		}
		if seenComm[idx] {
			return nil, fmt.Errorf("oplist: duplicate comm entry %s -> %s", c.From, c.To)
		}
		seenComm[idx] = true
		l.SetCommStretched(idx, c.Begin, c.End)
	}
	for idx, seen := range seenComm {
		if !seen {
			return nil, fmt.Errorf("oplist: missing comm entry for %s", w.Edge(idx))
		}
	}
	return l, nil
}
