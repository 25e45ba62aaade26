package transform

import (
	"strconv"

	"parallax/internal/collective"
	"parallax/internal/core"
	"parallax/internal/tensor"
)

// defaultFusionBytes caps one fusion bucket at 4 MiB, big enough to fuse
// every dense variable of the test-scale models into a single collective
// while keeping paper-scale buckets small enough that the first bucket's
// all-reduce can still overlap the tail of the backward pass.
const defaultFusionBytes = 4 << 20

// fuseBucket is one fused dense-AllReduce collective: a set of routes
// whose gradients live contiguously in a per-worker fusion buffer.
type fuseBucket struct {
	tags   collective.Tags
	routes []int // route indices, in declaration order
	elems  int
}

// buildFusion packs the dense AllReduce routes into size-capped fusion
// buckets and preallocates, per local worker, one contiguous buffer per
// bucket plus a shaped view per route. Routes pack in declaration order;
// since gradients become ready in *reverse* declaration order, a bucket's
// completion is triggered by its first route, and buckets complete
// back-to-front — last layers first, exactly the order that maximizes
// overlap with the remaining backward compute.
func (t *Trainer) buildFusion() {
	capBytes := t.opt.FusionBytes
	if capBytes == 0 {
		capBytes = defaultFusionBytes
	}
	bi := -1
	var curBytes int64
	for ri := range t.routes {
		r := &t.routes[ri]
		if r.assign.Method != core.MethodAllReduce {
			continue
		}
		vb := r.v.Bytes()
		if bi < 0 || capBytes < 0 || (curBytes > 0 && curBytes+vb > capBytes) {
			t.buckets = append(t.buckets, fuseBucket{})
			bi = len(t.buckets) - 1
			curBytes = 0
		}
		b := &t.buckets[bi]
		b.routes = append(b.routes, ri)
		b.elems += int(r.v.Elements())
		r.bucket = bi
		curBytes += vb
	}
	for i := range t.buckets {
		t.buckets[i].tags = collective.TagsFor("fuse/" + strconv.Itoa(i))
	}
	topk := t.opt.Compression.TopK > 0
	for _, w := range t.local {
		w.fuseBufs = make([]*tensor.Dense, len(t.buckets))
		w.fuseViews = make([]*tensor.Dense, len(t.routes))
		w.bucketPending = make([]int, len(t.buckets))
		if topk {
			w.fuseResid = make([]*tensor.Dense, len(t.buckets))
		}
		for i := range t.buckets {
			b := &t.buckets[i]
			buf := tensor.NewDense(b.elems)
			w.fuseBufs[i] = buf
			if topk {
				w.fuseResid[i] = tensor.NewDense(b.elems)
			}
			off := 0
			for _, ri := range b.routes {
				n := int(t.routes[ri].v.Elements())
				w.fuseViews[ri] = tensor.FromSlice(
					buf.Data()[off:off+n:off+n], t.routes[ri].v.Shape...)
				off += n
			}
		}
	}
}
