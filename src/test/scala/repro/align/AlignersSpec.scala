package repro.align

import org.scalatest.funsuite.AnyFunSuite
import repro.core.Variant
import repro.graph.RdfVersions

class AlignersSpec extends AnyFunSuite {

  private lazy val vs = RdfVersions.generate(n3 = 400)

  test("f1Identity: perfect singleton alignment scores 1") {
    val g = vs.g1
    val perfect = (0 until g.n).map(u => u -> Seq(u)).toMap
    assert(Aligner.f1Identity(g, perfect) === 1.0)
  }

  test("f1Identity: ties are penalized as 2/(1+|A|)") {
    val g = vs.g1
    val tied = (0 until g.n).map(u => u -> Seq(u, (u + 1) % g.n)).toMap
    assert(math.abs(Aligner.f1Identity(g, tied) - 2.0 / 3) < 1e-9)
  }

  test("f1Identity: misses score 0") {
    val g = vs.g1
    val wrong = (0 until g.n).map(u => u -> Seq((u + 1) % g.n)).toMap
    assert(Aligner.f1Identity(g, wrong) === 0.0)
  }

  test("aligning a graph to itself: FSim_b is near-perfect") {
    val f1 = Aligner.f1Identity(vs.g1, new FSimAligner(Variant.B).align(vs.g1, vs.g1))
    assert(f1 > 0.9, s"f1=$f1")
  }

  test("aligning a graph to itself: k-bisim recall is perfect (classes contain self)") {
    val res = new KBisimAligner(2).align(vs.g1, vs.g1)
    for (u <- 0 until vs.g1.n) assert(res(u).contains(u))
  }

  for (al <- Seq(new GsanaAligner, new FinalAligner, new EwsAligner)) {
    test(s"${al.name}: produces a one-to-one partial alignment") {
      val res = al.align(vs.g1, vs.g2)
      val targets = res.values.flatten.toSeq
      assert(targets.distinct.size === targets.size, "not injective")
      res.values.foreach(a => assert(a.size <= 1))
    }
  }

  test("EWS percolates well beyond its seeds on near-identical versions") {
    val al = new EwsAligner
    val res = al.align(vs.g2, vs.g3)
    assert(res.size > 200, s"only ${res.size} matched")
    val f1 = Aligner.f1Identity(vs.g2, res)
    assert(f1 > 0.3, s"f1=$f1")
  }

  test("FSim_b beats the exact-bisimulation aligner across versions (the paper's premise)") {
    val fsim = Aligner.f1Identity(vs.g1, new FSimAligner(Variant.B).align(vs.g1, vs.g2))
    val exact = repro.exp.Table9Footnote.exactBisimF1(vs.g1, vs.g2)
    assert(fsim * 100 > exact + 10, s"fsim=${fsim * 100} exactBisim=$exact")
  }

  test("4-bisim classes are finer than 2-bisim classes (lower alignment recall)") {
    val r2 = new KBisimAligner(2).align(vs.g1, vs.g2)
    val r4 = new KBisimAligner(4).align(vs.g1, vs.g2)
    val hits2 = (0 until vs.g1.n).count(u => r2(u).contains(u))
    val hits4 = (0 until vs.g1.n).count(u => r4(u).contains(u))
    assert(hits4 <= hits2)
  }

  test("Table 9's k-bisim F1 is unchanged: 2-/4-bisim on G1-G2 and G1-G3 at n3 = 1500") {
    // F1 of the Table-9 rows, recorded to full precision while Table 9 still
    // ran k-bisimulation as a Spark signature refinement (same partition)
    val t9 = RdfVersions.generate(n3 = 1500)
    val expected = Seq(
      ("G1-G2", 2) -> 0.28297261725206790, ("G1-G2", 4) -> 0.091287821506358540,
      ("G1-G3", 2) -> 0.32238167758697850, ("G1-G3", 4) -> 0.13371839501506727)
    for (((pair, k), f1) <- expected) {
      val g2 = if (pair == "G1-G2") t9.g2 else t9.g3
      val got = Aligner.f1Identity(t9.g1, new KBisimAligner(k).align(t9.g1, g2))
      assert(math.abs(got - f1) < 1e-12, s"$pair $k-bisim: $got")
    }
  }

  test("FINAL's alignment is unchanged: F1 bits and a checksum of its pairs on G1-G2 and G1-G3 at n3 = 600") {
    // Recorded from the FINAL that located neighbour pairs by binary search
    // over sorted u * n2 + v keys
    val rdf = RdfVersions.generate(n3 = 600)
    val got = for (pair <- Seq("G1-G2", "G1-G3")) yield {
      val res = new FinalAligner().align(rdf.g1, if (pair == "G1-G2") rdf.g2 else rdf.g3)
      val sum = res.toSeq.flatMap { case (u, a) => a.map(v => (u, v)) }.sorted
        .foldLeft(17L) { case (h, (u, v)) => 31 * (31 * h + u) + v }
      pair -> (java.lang.Double.doubleToLongBits(Aligner.f1Identity(rdf.g1, res)), sum)
    }
    assert(got === Seq(
      "G1-G2" -> ((4605302513329427183L, 4819366951209869087L)),
      "G1-G3" -> ((4604991920251677493L, -6278214786236394233L))))
  }

  test("Olap (out-only converged classes) differs from 2-bisim") {
    val ro = new OlapAligner().align(vs.g1, vs.g2)
    val r2 = new KBisimAligner(2).align(vs.g1, vs.g2)
    assert(ro !== r2)
  }
}
