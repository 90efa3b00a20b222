package analysis

// TrustBound pins the decode discipline of the serving layer's trust
// boundaries: every json.NewDecoder reachable (through the merged call
// graph) from an HTTP handler in internal/serve must
//
//   - call DisallowUnknownFields on the decoder before decoding — unknown
//     fields in a request are a protocol drift or an attack, never
//     something to silently drop; and
//   - sit in a function that validates what it decoded: the decoding
//     function itself, or every one of its direct callers, must make a
//     validation-shaped call (a function or method whose name contains
//     "valid") before the value escapes further.
//
// The rule generalizes what the request decoders already do by hand, so
// the next endpoint cannot skip it. Decoders outside any handler's reach
// (CLI config loading, test helpers) are not this analyzer's concern.
var TrustBound = &Analyzer{
	Name:      "trustbound",
	Doc:       "handler-reachable json decoders in internal/serve must DisallowUnknownFields and be validation-checked",
	Scope:     []string{"serve"},
	GlobalRun: runTrustBound,
}

func runTrustBound(gp *GlobalPass) {
	u := gp.Unit
	// Roots: HTTP-handler-shaped functions in scope packages.
	var roots []string
	rootOf := make(map[string]string) // reached func -> first root's short name
	for _, id := range u.FuncIDs() {
		ff := u.Funcs[id]
		if ff.HTTPHandler && gp.InScope(ff.PkgPath) {
			roots = append(roots, id)
		}
	}
	for _, root := range roots {
		for reached := range u.ReachableFrom([]string{root}) {
			if _, ok := rootOf[reached]; !ok || u.Funcs[root].Short < rootOf[reached] {
				rootOf[reached] = u.Funcs[root].Short
			}
		}
	}
	// Direct callers, for the caller-side validation rule.
	callers := make(map[string][]string)
	for _, id := range u.FuncIDs() {
		for _, callee := range u.Callees(id) {
			callers[callee] = append(callers[callee], id)
		}
	}
	for _, id := range u.FuncIDs() {
		ff := u.Funcs[id]
		handler, reachable := rootOf[id]
		if !reachable || len(ff.Decoders) == 0 {
			continue
		}
		for _, dec := range ff.Decoders {
			if !dec.Disallow {
				gp.Report(dec.Pos,
					"json.NewDecoder reachable from HTTP handler %s never calls DisallowUnknownFields; strict-decode at the trust boundary",
					handler)
			}
		}
		if !validatedSomewhere(u, callers, id) {
			gp.Report(ff.Pos,
				"%s decodes handler-reachable input but neither it nor every direct caller makes a validation call; validate before the value escapes the trust boundary",
				ff.Short)
		}
	}
}

// validatedSomewhere reports whether the decoding function validates, or
// every direct caller of it does (the decode-here-validate-there split
// decodeInto and its handlers use).
func validatedSomewhere(u *Unit, callers map[string][]string, id string) bool {
	if u.Funcs[id].Validates {
		return true
	}
	callerIDs := callers[id]
	if len(callerIDs) == 0 {
		return false
	}
	for _, c := range callerIDs {
		cf, ok := u.Funcs[c]
		if !ok || !cf.Validates {
			return false
		}
	}
	return true
}
