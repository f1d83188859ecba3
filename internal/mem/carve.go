package mem

// Carve cuts the first n elements off *slab and returns them with cap == len.
// A per-kind builder allocates one slab per column type for every member of
// its kind and carves each member's columns from it; because a region's
// capacity ends where it does, an append to it reallocates instead of
// writing into the next member's region.
func Carve[T any](slab *[]T, n int) []T {
	c := (*slab)[:n:n]
	*slab = (*slab)[n:]
	return c
}
