package experiments

import "testing"

func TestRegistryNamesUniqueAndTitled(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range Registry {
		if e.Name == "" || e.Name == "all" || seen[e.Name] {
			t.Errorf("registry name %q is empty, reserved or repeated", e.Name)
		}
		seen[e.Name] = true
		if e.Title == "" || e.Render == nil {
			t.Errorf("%s: missing title or renderer", e.Name)
		}
		if got, ok := Lookup(e.Name); !ok || got.Title != e.Title {
			t.Errorf("Lookup(%q) = %q, %v", e.Name, got.Title, ok)
		}
	}
	if _, ok := Lookup("nope"); ok {
		t.Error("Lookup accepted an unknown name")
	}
}
