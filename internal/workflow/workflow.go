// Package workflow defines the application model of the paper: a set of
// services (filters) with costs and selectivities, linked by precedence
// constraints, to be mapped one-to-one onto a homogeneous platform.
//
// Everything is expressed in the paper's normalized units (input size
// δ0 = 1, bandwidth b = 1, speed s = 1): a cost is the service's time per
// unit of input on a unit-speed server.
package workflow

import (
	"encoding/json"
	"fmt"
	"strconv"

	"repro/internal/dag"
	"repro/internal/rat"
)

// Service is one filter: it consumes a data set of size δ, spends c·δ time
// units computing, and emits a data set of size σ·δ.
type Service struct {
	// Name identifies the service in output and instance files. Empty names
	// are given the default "C<index+1>" (1-based, following the paper).
	Name string
	// Cost is the elementary cost c ≥ 0 per unit of input data.
	Cost rat.Rat
	// Selectivity is the output/input size ratio σ ≥ 0. σ < 1 filters
	// (shrinks) the stream; σ > 1 expands it.
	Selectivity rat.Rat
}

// App is an application A = (F, G): services plus precedence constraints.
type App struct {
	services []Service
	prec     *dag.Graph
}

// New builds an application from its services and precedence edges (pairs of
// service indices). It validates costs, selectivities and acyclicity.
func New(services []Service, precEdges [][2]int) (*App, error) {
	a, _, err := newApp(append([]Service(nil), services...))
	if err == nil {
		err = a.setPrecedence(precEdges)
	}
	if err != nil {
		return nil, err
	}
	return a, nil
}

// newApp validates services (taking ownership), fills in default names and
// returns the application, precedence-free, with its name → index table.
func newApp(services []Service) (*App, map[string]int, error) {
	a := &App{services: services, prec: dag.New(len(services))}
	names := make(map[string]int, len(services))
	for i := range a.services {
		s := &a.services[i]
		if s.Name == "" {
			s.Name = "C" + strconv.Itoa(i+1)
		}
		if prev, dup := names[s.Name]; dup {
			return nil, nil, fmt.Errorf("workflow: duplicate service name %q (indices %d and %d)", s.Name, prev, i)
		}
		names[s.Name] = i
		if s.Cost.Sign() < 0 {
			return nil, nil, fmt.Errorf("workflow: service %q has negative cost %s", s.Name, s.Cost)
		}
		if s.Selectivity.Sign() < 0 {
			return nil, nil, fmt.Errorf("workflow: service %q has negative selectivity %s", s.Name, s.Selectivity)
		}
	}
	return a, names, nil
}

// setPrecedence adds and checks the precedence edges of a fresh application.
func (a *App) setPrecedence(precEdges [][2]int) error {
	n := len(a.services)
	for _, e := range precEdges {
		if e[0] < 0 || e[0] >= n || e[1] < 0 || e[1] >= n {
			return fmt.Errorf("workflow: precedence edge %v out of range", e)
		}
		if e[0] == e[1] {
			return fmt.Errorf("workflow: precedence self-loop on service %d", e[0])
		}
		a.prec.AddEdge(e[0], e[1])
	}
	if !a.prec.IsAcyclic() {
		return fmt.Errorf("workflow: precedence constraints contain a cycle")
	}
	return nil
}

// MustNew is New that panics on error, for tests and fixed examples.
func MustNew(services []Service, precEdges [][2]int) *App {
	a, err := New(services, precEdges)
	if err != nil {
		panic(err)
	}
	return a
}

// N returns the number of services.
func (a *App) N() int { return len(a.services) }

// Service returns the i-th service.
func (a *App) Service(i int) Service { return a.services[i] }

// Services returns a copy of the service list.
func (a *App) Services() []Service {
	out := make([]Service, len(a.services))
	copy(out, a.services)
	return out
}

// Cost returns c_i.
func (a *App) Cost(i int) rat.Rat { return a.services[i].Cost }

// Selectivity returns σ_i.
func (a *App) Selectivity(i int) rat.Rat { return a.services[i].Selectivity }

// Name returns the name of service i.
func (a *App) Name(i int) string { return a.services[i].Name }

// IndexOf returns the index of the service with the given name, or -1.
func (a *App) IndexOf(name string) int {
	for i := range a.services {
		if a.services[i].Name == name {
			return i
		}
	}
	return -1
}

// Precedence returns the precedence-constraint graph. The caller must not
// modify it.
func (a *App) Precedence() *dag.Graph { return a.prec }

// HasPrecedence reports whether the application has any precedence
// constraints (the paper's NP-hardness results hold even without them).
func (a *App) HasPrecedence() bool { return a.prec.EdgeCount() > 0 }

// --- JSON instance files ---

type serviceJSON struct {
	Name        string  `json:"name,omitempty"`
	Cost        rat.Rat `json:"cost"`
	Selectivity rat.Rat `json:"selectivity"`
}

type appJSON struct {
	Services   []serviceJSON `json:"services"`
	Precedence [][2]string   `json:"precedence,omitempty"`
}

// MarshalJSON encodes the application as a self-describing instance file
// with exact rational costs and selectivities.
func (a *App) MarshalJSON() ([]byte, error) {
	doc := appJSON{Services: make([]serviceJSON, a.N())}
	for i, s := range a.services {
		doc.Services[i] = serviceJSON{Name: s.Name, Cost: s.Cost, Selectivity: s.Selectivity}
	}
	for _, e := range a.prec.Edges() {
		doc.Precedence = append(doc.Precedence, [2]string{a.Name(e[0]), a.Name(e[1])})
	}
	return json.Marshal(doc)
}

// UnmarshalJSON decodes an instance file produced by MarshalJSON (or written
// by hand; names may be omitted and default to C1, C2, ...).
func (a *App) UnmarshalJSON(data []byte) error {
	var doc appJSON
	if err := json.Unmarshal(data, &doc); err != nil {
		return err
	}
	services := make([]Service, len(doc.Services))
	for i, s := range doc.Services {
		services[i] = Service{Name: s.Name, Cost: s.Cost, Selectivity: s.Selectivity}
	}
	built, names, err := newApp(services)
	if err != nil {
		return err
	}
	edges := make([][2]int, len(doc.Precedence))
	for i, e := range doc.Precedence {
		u, okU := names[e[0]]
		v, okV := names[e[1]]
		if !okU || !okV {
			return fmt.Errorf("workflow: precedence edge %v references unknown service", e)
		}
		edges[i] = [2]int{u, v}
	}
	if err := built.setPrecedence(edges); err != nil {
		return err
	}
	*a = *built
	return nil
}

// Uniform returns n services all with the given cost and selectivity, named
// C1..Cn, without precedence constraints.
func Uniform(n int, cost, sel rat.Rat) *App {
	services := make([]Service, n)
	for i := range services {
		services[i] = Service{Cost: cost, Selectivity: sel}
	}
	return MustNew(services, nil)
}
