package main

import (
	"fmt"

	"adrias"
	"adrias/internal/core"
)

// reasons is the closed decision-reason vocabulary (core.Reason*), in the
// order the per-layer core.reason.<reason> counts are reported.
var reasons = []string{
	core.ReasonColdStart, core.ReasonNoHistory, core.ReasonPredictError,
	core.ReasonBESlack, core.ReasonLCQoS, core.ReasonLCNoQoS,
	core.ReasonCapacity, core.ReasonBreakerOpen, core.ReasonFabricDegraded,
	core.ReasonCommitConflict,
}

// answer is one placement as a caller sees it, over HTTP or in process.
type answer struct {
	App     string `json:"app"`
	Class   string `json:"class"`
	Tier    string `json:"tier"`
	Reason  string `json:"reason"`
	Node    int    `json:"node"`
	TraceID string `json:"trace_id"`
}

// validator checks answers against the application registry and the rack.
type validator struct {
	classOf map[string]string
	reason  map[string]bool
	nodes   int
}

func newValidator(reg *adrias.Registry, nodes int) *validator {
	v := &validator{classOf: make(map[string]string), reason: make(map[string]bool), nodes: nodes}
	for _, name := range reg.Names() {
		v.classOf[name] = reg.ByName(name).Class.String()
	}
	for _, r := range reasons {
		v.reason[r] = true
	}
	return v
}

// check returns nil when a is a valid answer to a placement request for app.
func (v *validator) check(app string, a answer) error {
	switch {
	case a.App != app:
		return fmt.Errorf("answer for app %q, asked %q", a.App, app)
	case a.Tier != "local" && a.Tier != "remote":
		return fmt.Errorf("tier %q is neither local nor remote", a.Tier)
	case a.Class != v.classOf[app]:
		return fmt.Errorf("class %q, registry says %q", a.Class, v.classOf[app])
	case !v.reason[a.Reason]:
		return fmt.Errorf("reason %q outside the decision vocabulary", a.Reason)
	case a.Node < 0 || a.Node >= v.nodes:
		return fmt.Errorf("node %d outside a %d-node rack", a.Node, v.nodes)
	case a.TraceID == "":
		return fmt.Errorf("empty trace_id")
	}
	return nil
}
