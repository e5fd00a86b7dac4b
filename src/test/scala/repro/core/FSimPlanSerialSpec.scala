package repro.core

import java.io.{ByteArrayInputStream, ByteArrayOutputStream, ObjectInputStream, ObjectOutputStream, ObjectStreamClass}
import org.scalatest.funsuite.AnyFunSuite
import repro.graph.DbisGen

/** The plan is what the Spark engine broadcasts. Its classes fix their serialVersionUID, so
  * an edit to a lambda inside them does not change the serialised form, and a plan read back
  * runs to the same scores bit for bit.
  */
class FSimPlanSerialSpec extends AnyFunSuite {

  test("FSimPlan and PairIndex declare serialVersionUID 1; a plan read back converges to the same bits") {
    assert(ObjectStreamClass.lookup(classOf[FSimPlan]).getSerialVersionUID === 1L)
    assert(ObjectStreamClass.lookup(classOf[PairIndex]).getSerialVersionUID === 1L)

    val g = DbisGen.generate(6, 3, 11L).graph
    val plan = new FSimPlan(g, g, FSimConfig(Variant.BJ, theta = 1.0, ub = Some(UbConfig(0.2, 0.5))))
    val bytes = new ByteArrayOutputStream
    val out = new ObjectOutputStream(bytes)
    out.writeObject(plan)
    out.close()
    val copy = new ObjectInputStream(new ByteArrayInputStream(bytes.toByteArray)).readObject().asInstanceOf[FSimPlan]

    def bits(p: FSimPlan): (Int, Long, Seq[(Int, Int, Long)]) = {
      val res = p.converge((prev, next) => p.sweep(prev, next, 0, p.size, 0))
      (res.iterations, java.lang.Double.doubleToLongBits(res.finalDelta),
        res.pairs.map { case (u, v, s) => (u, v, java.lang.Double.doubleToLongBits(s)) }.toSeq)
    }
    assert(copy.size === plan.size && plan.size > 0)
    assert(bits(copy) === bits(plan))
  }
}
