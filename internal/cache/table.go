package cache

// blockTable is the cache's index: logical block number → resident Block. The
// file system numbers blocks densely from 0, so the index is an array, not a
// hash: pages of pageSize pointers, allocated the first time a block of their
// span is admitted and kept from then on (one 4 KB page per 512-block span
// ever touched). get is two loads and no hashing; it is asked once per block
// of every hint window the prefetcher walks.
type blockTable struct {
	pages []*[pageSize]*Block
	n     int // resident blocks
}

const (
	pageShift = 9
	pageSize  = 1 << pageShift
)

// get returns the block entered for lb, or nil: a negative number and one
// beyond every page ever allocated are simply absent.
func (t *blockTable) get(lb int64) *Block {
	p := uint64(lb) >> pageShift
	if p >= uint64(len(t.pages)) || t.pages[p] == nil {
		return nil
	}
	return t.pages[p][lb&(pageSize-1)]
}

// set enters b for the absent block number lb >= 0.
func (t *blockTable) set(lb int64, b *Block) {
	p := int(lb >> pageShift)
	if p >= len(t.pages) {
		t.pages = append(t.pages, make([]*[pageSize]*Block, p+1-len(t.pages))...)
	}
	if t.pages[p] == nil {
		t.pages[p] = new([pageSize]*Block)
	}
	t.pages[p][lb&(pageSize-1)] = b
	t.n++
}

// del removes the resident block number lb.
func (t *blockTable) del(lb int64) {
	t.pages[lb>>pageShift][lb&(pageSize-1)] = nil
	t.n--
}

// each visits every resident block in ascending block-number order.
func (t *blockTable) each(fn func(*Block)) {
	for _, pg := range t.pages {
		if pg == nil {
			continue
		}
		for _, b := range pg {
			if b != nil {
				fn(b)
			}
		}
	}
}
