package superip

import (
	"fmt"
	"strconv"
	"strings"
)

// Parse assembles a super-IP network from its command-line specification:
// a family (HSN, ringCN, CN, dirCN, SFN or RCC), a level count l >= 2, a
// nucleus (Qn, FQn, Kn, Sn, SEn or P) and the symmetric-variant flag. RCC
// takes only the nucleus size, as its complete-graph nucleus K_M. Every
// specification the constructors cannot honor is an error, not a panic: an
// unknown family or nucleus, a nucleus with fewer than two nodes, l < 2, and
// sym on a nucleus that is not DistinctSeedSafe.
func Parse(family string, l int, nucleus string, sym bool) (*Net, error) {
	nuc, err := parseNucleus(nucleus)
	if err != nil {
		return nil, err
	}
	if l < 2 {
		return nil, fmt.Errorf("superip: %s needs l >= 2 levels (got %d)", family, l)
	}
	var net *Net
	switch family {
	case "HSN":
		net = HSN(l, nuc)
	case "ringCN":
		net = RingCN(l, nuc)
	case "CN":
		net = CompleteCN(l, nuc)
	case "dirCN":
		net = DirectedCN(l, nuc)
	case "SFN":
		net = SuperFlip(l, nuc)
	case "RCC":
		net = RCC(l, nuc.Size)
	default:
		return nil, fmt.Errorf("superip: unknown super-IP family %q", family)
	}
	if sym {
		if !net.Nucleus.DistinctSeedSafe {
			return nil, fmt.Errorf("superip: nucleus %s has no symmetric variant "+
				"(a distinct seed changes its state space)", net.Nucleus.Short)
		}
		net = net.SymmetricVariant()
	}
	return net, nil
}

// parseNucleus reads a nucleus name. Each size is checked against the
// smallest nucleus of two or more nodes (Q1, FQ1, K2, S2, SE1) before the
// constructor sees it.
func parseNucleus(s string) (NucleusSpec, error) {
	if s == "P" {
		return NucleusPetersen(), nil
	}
	kind := strings.TrimRight(s, "-0123456789")
	n, err := strconv.Atoi(s[len(kind):])
	if err != nil || kind == "" {
		return NucleusSpec{}, fmt.Errorf("superip: bad nucleus %q (want Qn, FQn, Kn, Sn, SEn or P)", s)
	}
	var build func(int) NucleusSpec
	least := 1
	switch kind {
	case "Q":
		build = NucleusHypercube
	case "FQ":
		build = NucleusFoldedHypercube
	case "K":
		build, least = NucleusComplete, 2
	case "S":
		build, least = NucleusStar, 2
	case "SE":
		build = NucleusShuffleExchange
	default:
		return NucleusSpec{}, fmt.Errorf("superip: unknown nucleus kind %q in %q", kind, s)
	}
	if n < least {
		return NucleusSpec{}, fmt.Errorf("superip: nucleus %s needs %s%d or more (fewer than two nodes)", s, kind, least)
	}
	return build(n), nil
}
