package serve

import (
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"
)

// parseOpenAPIRoutes extracts "METHOD /path" pairs from openapi.yaml with
// a deliberately naive reader: path keys are the 2-space-indented keys
// under "paths:", methods the 4-space-indented keys below each path. That
// is exactly the structure the committed file uses; anything fancier
// belongs to a real YAML parser the repo does not take a dependency on.
func parseOpenAPIRoutes(t *testing.T) map[string]bool {
	t.Helper()
	raw, err := os.ReadFile("openapi.yaml")
	if err != nil {
		t.Fatalf("reading openapi.yaml: %v", err)
	}
	routes := make(map[string]bool)
	inPaths := false
	current := ""
	for _, line := range strings.Split(string(raw), "\n") {
		trimmed := strings.TrimRight(line, " \r")
		if strings.TrimSpace(trimmed) == "" || strings.HasPrefix(strings.TrimSpace(trimmed), "#") {
			continue
		}
		indent := len(trimmed) - len(strings.TrimLeft(trimmed, " "))
		key, isKey := strings.CutSuffix(strings.TrimSpace(trimmed), ":")
		switch {
		case indent == 0:
			inPaths = isKey && key == "paths"
		case !inPaths:
		case indent == 2 && isKey && strings.HasPrefix(key, "/"):
			current = key
		case indent == 4 && isKey && current != "":
			method := strings.ToUpper(key)
			switch method {
			case "GET", "POST", "PUT", "PATCH", "DELETE", "HEAD", "OPTIONS":
				routes[method+" "+current] = true
			}
		}
	}
	if len(routes) == 0 {
		t.Fatal("parsed no routes out of openapi.yaml")
	}
	return routes
}

// TestOpenAPIRouteParity pins openapi.yaml to the server's route table in
// both directions.
func TestOpenAPIRouteParity(t *testing.T) {
	documented := parseOpenAPIRoutes(t)
	registered := make(map[string]bool)
	for _, rt := range (&Server{}).routeTable() {
		registered[rt.method+" "+rt.pattern] = true
	}

	var missing, stale []string
	for r := range registered {
		if !documented[r] {
			missing = append(missing, r)
		}
	}
	for r := range documented {
		if !registered[r] {
			stale = append(stale, r)
		}
	}
	sort.Strings(missing)
	sort.Strings(stale)
	if len(missing) > 0 || len(stale) > 0 {
		t.Fatalf("openapi.yaml out of sync with the route table:\n  undocumented routes: %v\n  documented but unregistered: %v",
			missing, stale)
	}
	if testing.Verbose() {
		fmt.Printf("openapi.yaml documents all %d routes\n", len(registered))
	}
}
