package modelcheck

import "testing"

// TestSpecsDeclareKnownModels pins the pairing between the specs and the
// model registry in both directions: every spec's Model is a registered
// model, so a renamed model cannot silently detach its spec, and every
// registered model is fed by at least one spec that lists the packages it
// covers. hydralint's model-conformance and spec-drift passes check the
// contents (atomic words, sched tags); this test checks the index.
func TestSpecsDeclareKnownModels(t *testing.T) {
	known := map[string]bool{}
	for _, m := range Models() {
		known[m.Name] = true
	}
	covers := map[string]bool{}
	for _, s := range Specs() {
		if s.Name == "" {
			t.Errorf("spec with model %q has no Name", s.Model)
		}
		if s.Model == "" {
			continue
		}
		if !known[s.Model] {
			t.Errorf("spec %s feeds model %q, which Models() does not register", s.Name, s.Model)
		}
		if len(s.Packages) == 0 {
			t.Errorf("spec %s feeds model %q but lists no packages", s.Name, s.Model)
		}
		covers[s.Model] = true
	}
	for name := range known {
		if !covers[name] {
			t.Errorf("model %q is fed by no spec; name it in the Model of the spec it checks", name)
		}
	}
}
