package server

import (
	"strings"
	"testing"

	"multisite/internal/jobs"
	"multisite/internal/solve"
)

// FuzzParseOp smokes the one parser every compute body goes through —
// synchronous, job submit, job replay and gateway routing alike — with
// adversarial (type, body) pairs. Whatever the bytes, parsing must not
// panic. An accepted body must route where FleetRouteKey routes it, with
// a safe configuration (the Size type rejects NaN/overflow spellings at
// decode), a sweep of 1 to maxSweepScenarios points and canonical,
// distinct solvers no more numerous than the body is long (a solver list
// is a plain array; only a size range string may expand, and that is
// bounded).
//
// Type "jobs" parses the body as a /v1/jobs submit envelope. An accepted
// envelope must carry no anytime spec, and its inner spec, parsed on its
// own, must give the same type and routing key.
func FuzzParseOp(f *testing.F) {
	for _, body := range []string{
		`{"soc":"d695","channels":256,"depth":"64K"}`,
		`{"soc":"d695","solvers":["heuristic","exact","baseline"]}`,
		`{"soc_text":"SocName x","solvers":[]}`,
		`{"solvers":["` + strings.Repeat("a", 1024) + `"]}`,
		`{"soc":"d695","depth":"1e308","clock_hz":-1}`,
		`{"soc":"d695","solvers":null}`,
		`[]`,
		`{"soc":"d695","solvers":["exact"],"channels":9223372036854775807}`,
	} {
		f.Add("compare", body)
	}
	f.Add("optimize", `{"soc":"d695","solver":"HEURISTIC","channels":256}`)
	f.Add("sweep", `{"soc":"d695","depths":"48K:96K:16K","channels_list":[4,256],"retest_both":true}`)
	f.Add("sweep", `{"soc":"p93791","solver":"exact","contact_yields":[1,0.99]}`)
	f.Add("bogus", `{"soc":"d695"}`)
	for _, envelope := range []string{
		`{"type":"optimize","request":{"soc":"d695","channels":256,"depth":"64K"}}`,
		`{"type":"sweep","request":{"soc":"d695","depths":"48K:96K:16K","channels_list":[4,256]}}`,
		`{"type":"compare","request":{"soc":"d695","solvers":["heuristic","exact"]}}`,
		`{"type":"optimize","request":{"soc":"d695","anytime":true}}`,
		`{"type":"sweep","request":{"soc":"d695","solver":"nope"}}`,
		`{"type":"optimize"}`,
		`{"type":"bogus","request":{"soc":"d695"}}`,
		`{"type":"optimize","request":{"soc":"d695"},"priority":1}`,
	} {
		f.Add("jobs", envelope)
	}
	f.Fuzz(func(t *testing.T, typ, body string) {
		var (
			o      *op
			status int
			err    error
		)
		if typ == "jobs" {
			o, status, err = parseRequest("/v1/jobs", []byte(body))
		} else {
			o, status, err = parseOp(jobs.Type(typ), []byte(body))
		}
		if err != nil {
			if status < 400 || status > 499 {
				t.Errorf("rejected %s %q with status %d", typ, body, status)
			}
			return
		}
		if typ == "jobs" {
			if o.anytime {
				t.Errorf("job envelope %q accepted an anytime spec", body)
			}
			inner, _, err := parseOp(o.typ, o.body)
			switch {
			case err != nil:
				t.Errorf("job envelope %q: inner spec rejected on its own: %v", body, err)
			case inner.typ != o.typ || inner.key != o.key:
				t.Errorf("job envelope %q: inner spec gives %s key %q, envelope %s key %q",
					body, inner.typ, inner.key, o.typ, o.key)
			}
		}
		key, _, err := FleetRouteKey("/v1/"+typ, []byte(body))
		if err != nil || key != o.key {
			t.Errorf("FleetRouteKey(%s) = %q, %v; parseOp key %q", typ, key, err, o.key)
		}
		if o.cfg.ATE.Depth < 0 {
			t.Errorf("decoded negative depth from %q", body)
		}
		if o.typ == jobs.TypeSweep && (len(o.points) < 1 || len(o.points) > maxSweepScenarios) {
			t.Errorf("sweep of %d points accepted from %q", len(o.points), body)
		}
		if len(o.solvers) > len(body) {
			t.Errorf("solver list longer than the body itself: %d", len(o.solvers))
		}
		seen := map[string]bool{}
		for _, name := range o.solvers {
			sv, err := solve.Get(name)
			if err != nil || sv.Name() != name || seen[name] {
				t.Errorf("solver %q is not canonical and distinct in %v", name, o.solvers)
			}
			seen[name] = true
		}
	})
}
