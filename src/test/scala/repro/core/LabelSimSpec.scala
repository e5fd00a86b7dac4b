package repro.core

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.{Gen, Prop, Test}
import org.scalacheck.rng.Seed
import org.scalacheck.util.Pretty

class LabelSimSpec extends AnyFunSuite {

  private val strings =
    Seq("", "a", "ab", "abc", "concept:animal", "concept:animal:bird", "cat01:sub2:leaf3",
      "cat01:sub2:leaf4", "WWW", "WWW_1", "author_0001", "author_0002", "kitten", "sitting")

  private val labelSims = Seq(LabelSim.Indicator, LabelSim.EditDistance, LabelSim.JaroWinkler)

  test("edit distance known values") {
    assert(LabelSim.EditDistance("kitten", "sitting") === 1.0 - 3.0 / 7)
    assert(LabelSim.EditDistance("abc", "abc") === 1.0)
    assert(LabelSim.EditDistance("abc", "abd") === 1.0 - 1.0 / 3)
    assert(LabelSim.EditDistance("", "abc") === 0.0)
    assert(LabelSim.EditDistance("", "") === 1.0)
  }

  test("jaro-winkler known values") {
    assert(math.abs(LabelSim.JaroWinkler("MARTHA", "MARHTA") - 0.9611) < 1e-3)
    assert(math.abs(LabelSim.JaroWinkler("DWAYNE", "DUANE") - 0.84) < 1e-2)
    assert(LabelSim.JaroWinkler("abc", "abc") === 1.0)
    assert(LabelSim.JaroWinkler("abc", "xyz") === 0.0)
  }

  for (l <- labelSims) {
    test(s"${l.name}: range is [0,1] on sample strings") {
      for (a <- strings; b <- strings) {
        val s = l(a, b)
        assert(s >= 0.0 && s <= 1.0, s"$a vs $b -> $s")
      }
    }
    test(s"${l.name}: similarity 1 iff labels equal (well-definiteness constraint)") {
      for (a <- strings; b <- strings) {
        if (a == b) assert(l(a, b) === 1.0)
        else assert(l(a, b) < 1.0, s"'$a' vs '$b'")
      }
    }
    test(s"${l.name}: symmetric on sample strings") {
      for (a <- strings; b <- strings) assert(l(a, b) === l(b, a))
    }
  }

  test("edit distance symmetric on random strings (scalacheck gen)") {
    val gen = Gen.alphaNumStr.map(_.take(12))
    val params = Gen.Parameters.default
    for (i <- 0 until 200) {
      val a = gen.pureApply(params, Seed(i)); val b = gen.pureApply(params, Seed(i + 1000))
      assert(LabelSim.EditDistance.sim(a, b) === LabelSim.EditDistance.sim(b, a))
      assert(LabelSim.JaroWinkler.sim(a, b) === LabelSim.JaroWinkler.sim(b, a))
    }
  }

  test("memoized apply equals raw sim") {
    for (a <- strings; b <- strings; l <- labelSims) {
      assert(l(a, b) === (if (a == b) 1.0 else l.sim(a, b)))
    }
  }

  test("every L is symmetric bit for bit on short strings over 2-3 letters") {
    // the half plan of a self-similarity run reads L(b, a) as L(a, b); few
    // letters make Jaro's window matches and transpositions collide
    val pair = for {
      alphabet <- Gen.oneOf("ab", "abc")
      a <- Gen.choose(0, 8).flatMap(Gen.listOfN(_, Gen.oneOf(alphabet)))
      b <- Gen.choose(0, 8).flatMap(Gen.listOfN(_, Gen.oneOf(alphabet)))
    } yield (a.mkString, b.mkString)
    val prop = Prop.forAll(pair) { case (a, b) =>
      labelSims.forall(l => java.lang.Double.doubleToLongBits(l(a, b)) == java.lang.Double.doubleToLongBits(l(b, a)))
    }
    val params = Test.Parameters.default.withMinSuccessfulTests(20000).withWorkers(1)
      .withInitialSeed(Seed(20210419L))
    val result = Test.check(params, prop)
    assert(result.passed, Pretty.pretty(result))
  }
}
