package cpu

import "clip/internal/mem"

// Perceptron is a hashed perceptron branch predictor (Jiménez & Lin, HPCA'01;
// the paper's baseline core uses the hashed variant). Several weight tables
// are indexed by hashes of the branch IP with different global-history
// segments; the prediction is the sign of the summed weights.
type Perceptron struct {
	// weights holds the tables back to back: table t is
	// weights[t*pcptEntries:][:pcptEntries].
	weights  []int8
	history  uint64
	theta    int32
	lastSum  int32
	tableSel [pcptTables]uint32 // scratch: per-table index of the last prediction
}

// perceptron geometry: enough to predict the synthetic workloads' loop and
// guard branches well while staying cheap.
const (
	pcptTables    = 4
	pcptEntries   = 1024
	pcptHistSlice = 12
	pcptWeightMax = 63
	pcptWeightMin = -64
)

// carve sets p up as a predictor with zeroed weights carved from *weights
// (NewCores carves every core's from one slab).
func (p *Perceptron) carve(weights *[]int8) {
	*p = Perceptron{weights: mem.Carve(weights, pcptTables*pcptEntries), theta: int32(2*pcptTables + 7)}
}

// table returns weight table t.
func (p *Perceptron) table(t int) []int8 {
	return p.weights[t*pcptEntries : (t+1)*pcptEntries : (t+1)*pcptEntries]
}

// Predict returns the predicted direction for the branch at ip.
func (p *Perceptron) Predict(ip uint64) bool {
	var sum int32
	for t := 0; t < pcptTables; t++ {
		slice := (p.history >> (uint(t) * pcptHistSlice)) & ((1 << pcptHistSlice) - 1)
		idx := uint32(mem.Mix64(ip^(slice<<17)^uint64(t)*0x9e37) % pcptEntries)
		p.tableSel[t] = idx
		sum += int32(p.weights[t*pcptEntries+int(idx)])
	}
	p.lastSum = sum
	return sum >= 0
}

// Update trains the predictor with the actual outcome of the most recently
// predicted branch and shifts the global history.
func (p *Perceptron) Update(taken, predicted bool) {
	if predicted != taken || abs32(p.lastSum) <= p.theta {
		for t := 0; t < pcptTables; t++ {
			at := t*pcptEntries + int(p.tableSel[t])
			w := p.weights[at]
			if taken && w < pcptWeightMax {
				w++
			} else if !taken && w > pcptWeightMin {
				w--
			}
			p.weights[at] = w
		}
	}
	p.history <<= 1
	if taken {
		p.history |= 1
	}
}

func abs32(v int32) int32 {
	if v < 0 {
		return -v
	}
	return v
}
