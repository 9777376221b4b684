package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.eval.{EvalRunner, Metrics}

/** Figure 4 (recorded as tables; figures are out of scope) — top-k precision
  * and recall of Aurum / D3L / WarpGate on NextiaJD testbedS, testbedM, and
  * Spider.
  *
  * Shape to reproduce: (a) WarpGate consistently above both baselines on the
  * NextiaJD testbeds as k grows; (b) on Spider, WarpGate far above the
  * syntactic-only Aurum and comparable to D3L, whose recall jumps between
  * k=5 and k=10 through its column-name evidence.
  */
class PrecisionRecallBench extends AnyFunSuite {

  private val ks = Seq(1, 3, 5, 10)

  private def run(name: String): Map[String, Seq[Metrics.PrAtK]] = {
    val ec      = BenchContext.corpus(name)
    val (wg, _) = BenchContext.warpGate(name)
    val wgPr    = EvalRunner.warpGateEffectiveness(ec, wg, ks)
    val (au, _) = BenchContext.aurum(name)
    val auPr    = EvalRunner.aurumEffectiveness(ec, au, ks)
    val (d3, _) = BenchContext.d3l(name)
    val d3Pr    = EvalRunner.d3lEffectiveness(ec, d3, ks)
    val out = Map("WarpGate" -> wgPr, "Aurum" -> auPr, "D3L" -> d3Pr)
    Seq("Aurum", "D3L", "WarpGate").foreach { sys =>
      out(sys).foreach(p => BenchContext.report(
        f"fig4 $name%-7s $sys%-9s k=${p.k}%2d P=${p.precision}%.3f R=${p.recall}%.3f"))
    }
    out
  }

  private lazy val s      = run("S")
  private lazy val m      = run("M")
  private lazy val spider = run("Spider")

  private def at(r: Map[String, Seq[Metrics.PrAtK]], sys: String, k: Int): Metrics.PrAtK =
    r(sys).find(_.k == k).get

  test("Fig 4(a) testbedS: WarpGate above both baselines on recall for k >= 3") {
    Seq(3, 5, 10).foreach { k =>
      assert(at(s, "WarpGate", k).recall >= at(s, "Aurum", k).recall, s"k=$k vs Aurum")
      assert(at(s, "WarpGate", k).recall >= at(s, "D3L", k).recall - 0.02, s"k=$k vs D3L")
    }
  }

  test("Fig 4(a) testbedS: WarpGate above both baselines on precision at k <= 3") {
    Seq(1, 3).foreach { k =>
      assert(at(s, "WarpGate", k).precision >= at(s, "Aurum", k).precision, s"k=$k")
      assert(at(s, "WarpGate", k).precision >= at(s, "D3L", k).precision - 0.05, s"k=$k")
    }
  }

  test("Fig 4(a) testbedS: WarpGate reaches high recall at k=10") {
    assert(at(s, "WarpGate", 10).recall > 0.75, s"${at(s, "WarpGate", 10).recall}")
  }

  test("Fig 4(b) testbedM: WarpGate above both baselines on recall for k >= 3") {
    Seq(3, 5, 10).foreach { k =>
      assert(at(m, "WarpGate", k).recall >= at(m, "Aurum", k).recall, s"k=$k vs Aurum")
      assert(at(m, "WarpGate", k).recall >= at(m, "D3L", k).recall - 0.02, s"k=$k vs D3L")
    }
  }

  test("Fig 4(b) testbedM: WarpGate reaches high recall at k=10") {
    assert(at(m, "WarpGate", 10).recall > 0.75, s"${at(m, "WarpGate", 10).recall}")
  }

  test("Fig 4(c) Spider: WarpGate outperforms syntactic-only Aurum by a large margin") {
    Seq(1, 5, 10).foreach { k =>
      assert(at(spider, "WarpGate", k).recall > at(spider, "Aurum", k).recall + 0.15, s"k=$k")
    }
  }

  test("Fig 4(c) Spider: WarpGate compares favorably with the D3L ensemble") {
    assert(at(spider, "WarpGate", 10).recall > 0.85)
    assert(at(spider, "WarpGate", 10).recall >= at(spider, "D3L", 10).recall - 0.1)
  }

  test("Fig 4(c) Spider: D3L recall improves from k=5 to k=10 (name evidence)") {
    assert(at(spider, "D3L", 10).recall >= at(spider, "D3L", 5).recall)
  }

  test("Fig 4: recall is non-decreasing in k for every system and corpus") {
    Seq(s, m, spider).foreach { r =>
      r.foreach { case (sys, pr) =>
        val rs = pr.map(_.recall)
        assert(rs == rs.sorted, s"$sys: $rs")
      }
    }
  }
}
