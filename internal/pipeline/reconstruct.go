package pipeline

import (
	"sort"
	"strings"

	"tracescale/internal/reconstruct"
)

// reconKey is the memo key of one reconstruction: the projection in
// canonical form (traced names sorted — the traced set is a set, so two
// spellings of it must share a slot; the observed sequence verbatim —
// order is the observation) plus every Options knob that can change the
// Result, including the witness and node caps (they truncate Witnesses).
type reconKey struct {
	traced   string
	observed string
	opt      reconstruct.Options
}

func reconKeyOf(pr reconstruct.Projection, opt reconstruct.Options) reconKey {
	names := append([]string(nil), pr.Traced...)
	sort.Strings(names)
	var obs strings.Builder
	for i, m := range pr.Observed {
		if i > 0 {
			obs.WriteByte('\n')
		}
		obs.WriteString(m.String())
	}
	return reconKey{
		traced:   strings.Join(names, "\n"),
		observed: obs.String(),
		opt:      opt,
	}
}

// Reconstruct runs the reconstruction engine over the session's product
// (building it on first use), memoizing Results per canonical (projection, options) key: repeated
// reconstructions of the same observation — the serving layer's repeated
// POST /reconstruct bodies — return the cached Result. The returned
// Result is shared between callers and must be treated as read-only.
// Errors are not memoized, so a malformed projection is re-validated (and
// re-rejected) each time.
func (s *Session) Reconstruct(pr reconstruct.Projection, opt reconstruct.Options) (*reconstruct.Result, error) {
	key := reconKeyOf(pr, opt)
	s.mu.Lock()
	if res, ok := s.recons[key]; ok {
		s.mu.Unlock()
		s.obs.Counter("pipeline.reconstruct.hits").Inc()
		return res, nil
	}
	s.mu.Unlock()
	s.obs.Counter("pipeline.reconstruct.misses").Inc()
	res, err := reconstruct.Reconstruct(s.Product(), pr, opt)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	if prior, ok := s.recons[key]; ok {
		res = prior // keep the first stored Result so callers share one
	} else {
		s.recons[key] = res
	}
	s.mu.Unlock()
	return res, nil
}
