package memsys

// Values is the functional value layer: one int64 per word index (a
// byte address divided by the word size) in dense tables, so an access
// hashes nothing. Words sit in pages of pageWords, and pages in spans of
// consecutive page numbers; workloads lay out a handful of disjoint
// regions, each of which becomes one span, so a lookup is a short scan
// of the spans and two indexings. Words never written read as zero, and
// reading allocates nothing. The zero value is empty and ready to use.
type Values struct {
	spans []span
}

const (
	pageBits  = 6
	pageWords = 1 << pageBits
	// spanGap is how many absent pages a span may bridge (as nil page
	// pointers) to take in a nearby page rather than start a new span.
	spanGap = 256
)

// span covers pages first, first+1, ... of the word space; a nil entry
// is a page never written.
type span struct {
	first uint64
	pages []*[pageWords]int64
}

// page returns the page holding word w, or nil. Spans may overlap
// after growing, but a page is allocated in only one of them.
func (v *Values) page(w uint64) *[pageWords]int64 {
	p := w >> pageBits
	for i := range v.spans {
		s := &v.spans[i]
		if k := p - s.first; k < uint64(len(s.pages)) && s.pages[k] != nil {
			return s.pages[k]
		}
	}
	return nil
}

// Get returns word w's value.
func (v *Values) Get(w uint64) int64 {
	if pg := v.page(w); pg != nil {
		return pg[w&(pageWords-1)]
	}
	return 0
}

// Set stores x at word w.
func (v *Values) Set(w uint64, x int64) {
	pg := v.page(w)
	if pg == nil {
		pg = v.grow(w >> pageBits)
	}
	pg[w&(pageWords-1)] = x
}

// grow allocates page p, which no span holds: in the first span that
// covers it, or by extending one over a gap of at most spanGap pages,
// or in a new span.
func (v *Values) grow(p uint64) *[pageWords]int64 {
	pg := new([pageWords]int64)
	for i := range v.spans {
		s := &v.spans[i]
		switch end := s.first + uint64(len(s.pages)); {
		case p >= s.first && p < end:
			s.pages[p-s.first] = pg
			return pg
		case p >= end && p-end <= spanGap:
			for end < p {
				s.pages = append(s.pages, nil)
				end++
			}
			s.pages = append(s.pages, pg)
			return pg
		case p < s.first && s.first-p <= spanGap:
			pages := make([]*[pageWords]int64, s.first-p, s.first-p+uint64(len(s.pages)))
			pages[0] = pg
			s.pages = append(pages, s.pages...)
			s.first = p
			return pg
		}
	}
	v.spans = append(v.spans, span{first: p, pages: []*[pageWords]int64{pg}})
	return pg
}
