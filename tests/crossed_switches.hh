/**
 * @file
 * Test helper: a model whose switches() order (topological) differs
 * from ascending switch id, the order of a routing's slots. Every
 * paper model lists its switches in ascending id, so only a graph
 * like this one shows a routing stored by routing order instead of
 * by slot.
 */

#ifndef ADYNA_TESTS_CROSSED_SWITCHES_HH
#define ADYNA_TESTS_CROSSED_SWITCHES_HH

#include <cstdint>

#include "graph/parser.hh"
#include "graph/transforms.hh"

namespace adyna::test {

/**
 * Two inputs: `a` feeds a 4-expert top-2 MoE, `b` a layer skip and
 * then an early exit. The parser numbers b's chain first (skip switch
 * 3, exit switch 7, MoE switch 14) but routes a's chain first, so
 * switches() is {14, 3, 7} while the slots are 14 -> 2, 3 -> 0,
 * 7 -> 1.
 */
inline graph::DynGraph
crossedSwitchModel(std::int64_t batch)
{
    using namespace graph;
    Graph g("crossed");
    const OpId a = g.addInput("a", LoopDims::matmul(batch, 64, 64));
    const OpId b = g.addInput("b", LoopDims::matmul(batch, 64, 64));
    const OpId moe = addMoE(g, "moe", g.addMatMul("pa", a, 64, 64), 4, 2,
                            {}, [](Graph &gg, OpId s) {
                                return gg.addMatMul("ffn", s, 64, 64);
                            });
    const OpId skip = addLayerSkip(
        g, "skip", g.addMatMul("pb", b, 64, 64), 0.4, 0,
        [](Graph &gg, OpId s) { return gg.addMatMul("blk", s, 64, 64); });
    const OpId exit = addEarlyExit(g, "exit", skip, 2, 0.3, 1);
    const OpId tail = buildBranch(g, exit, 1, [](Graph &gg, OpId s) {
        return gg.addMatMul("tail", s, 64, 64);
    });
    g.addOutput("oa", moe);
    g.addOutput("ob", tail);
    return parseModel(g);
}

} // namespace adyna::test

#endif // ADYNA_TESTS_CROSSED_SWITCHES_HH
